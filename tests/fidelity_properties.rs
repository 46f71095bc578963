//! Property tests for the fidelity-attribution layer: the heat-provenance
//! ledger and per-gate loss decomposition over compiled schedules on
//! {linear, ring, grid} topologies under both routers and both timing
//! models.
//!
//! Invariants checked on every sampled instance:
//!
//! 1. **Log identity** — folding the event-ordered loss terms (gate
//!    `ln F` summands, negated shuttle-pulse losses) reproduces the
//!    replay's `log_program_fidelity` *bit-for-bit*, not approximately.
//! 2. **Ledger identity** — folding each chain's tagged heat deposits
//!    reproduces the simulator's `n̄` at every gate sample point and at
//!    program end, bit for bit.
//! 3. **Observes, never decides** — the attribution's embedded report is
//!    bit-for-bit the plain (uninstrumented) simulator's report.
//! 4. **Decomposition consistency** — each unsaturated gate's duration
//!    and motional terms recombine into its log loss, and the motional
//!    term splits into zero-point plus heat, to floating-point rounding.

use muzzle_shuttle::circuit::generators::random_circuit;
use muzzle_shuttle::compiler::{compile, CompilerConfig, RouterPolicy};
use muzzle_shuttle::machine::{MachineSpec, TrapTopology};
use muzzle_shuttle::sim::{
    attribute_fidelity, attribute_fidelity_timed, simulate, simulate_timed, FidelityAttribution,
    LossTerm, SimParams, SimReport,
};
use muzzle_shuttle::timing::TimingModel;
use proptest::prelude::*;

fn topology_strategy() -> impl Strategy<Value = TrapTopology> {
    prop_oneof![
        (2u32..=6).prop_map(TrapTopology::linear),
        (3u32..=8).prop_map(TrapTopology::ring),
        prop_oneof![
            Just(TrapTopology::grid(2, 2)),
            Just(TrapTopology::grid(2, 3)),
            Just(TrapTopology::grid(3, 3)),
        ],
    ]
}

/// Bit-for-bit equality over every report field — the
/// observes-never-decides contract; returns an error string so the
/// proptest and the deterministic test can share it.
fn check_reports_bit_equal(a: &SimReport, b: &SimReport) -> Result<(), String> {
    let floats = [
        ("program_fidelity", a.program_fidelity, b.program_fidelity),
        (
            "log_program_fidelity",
            a.log_program_fidelity,
            b.log_program_fidelity,
        ),
        ("makespan_us", a.makespan_us, b.makespan_us),
        (
            "timed_makespan_us",
            a.timed_makespan_us,
            b.timed_makespan_us,
        ),
        (
            "final_mean_motional_mode",
            a.final_mean_motional_mode,
            b.final_mean_motional_mode,
        ),
        (
            "final_mean_motional_mode_occupied",
            a.final_mean_motional_mode_occupied,
            b.final_mean_motional_mode_occupied,
        ),
        (
            "min_gate_fidelity",
            a.min_gate_fidelity,
            b.min_gate_fidelity,
        ),
    ];
    for (name, x, y) in floats {
        if x.to_bits() != y.to_bits() {
            return Err(format!("{name} diverged: {x} vs {y}"));
        }
    }
    let counts = [
        ("shuttles", a.shuttles, b.shuttles),
        ("shuttle_depth", a.shuttle_depth, b.shuttle_depth),
        ("gates", a.gates, b.gates),
        ("zone_moves", a.zone_moves, b.zone_moves),
        (
            "junction_crossings",
            a.junction_crossings,
            b.junction_crossings,
        ),
    ];
    for (name, x, y) in counts {
        if x != y {
            return Err(format!("{name} diverged: {x} vs {y}"));
        }
    }
    Ok(())
}

/// The shared invariant bundle: both identities, an *independent* re-fold
/// of the log identity from the raw terms, and per-gate decomposition
/// consistency.
fn check_attribution(attr: &FidelityAttribution) -> Result<(), String> {
    if !attr.log_identity_holds() {
        return Err(format!(
            "log identity violated: terms do not reproduce {}",
            attr.report.log_program_fidelity
        ));
    }
    if !attr.ledger_identity_holds() {
        return Err("ledger identity violated: deposits do not reproduce n_bar".to_owned());
    }

    // Re-fold the terms here rather than trusting `total_log`, so the
    // test states the identity independently of the implementation.
    let mut sum = 0.0f64;
    let mut zero_fidelity = false;
    for term in &attr.terms {
        match *term {
            LossTerm::Gate { fidelity, .. } => {
                if fidelity <= 0.0 {
                    zero_fidelity = true;
                } else {
                    sum += fidelity.ln();
                }
            }
            LossTerm::Shuttle { log_loss, .. } => sum += -log_loss,
        }
    }
    let refolded = if zero_fidelity {
        f64::NEG_INFINITY
    } else {
        sum
    };
    if refolded.to_bits() != attr.report.log_program_fidelity.to_bits() {
        return Err(format!(
            "independent re-fold diverged: {refolded} vs {}",
            attr.report.log_program_fidelity
        ));
    }

    for term in &attr.terms {
        if let LossTerm::Gate {
            gate,
            trap,
            n_bar,
            ledger_cursor,
            log_loss,
            duration_loss,
            motional_loss,
            zero_point_loss,
            heat_loss,
            saturated,
            ..
        } = *term
        {
            let folded = attr.ledger.n_bar_at(trap.index(), ledger_cursor);
            if folded.to_bits() != n_bar.to_bits() {
                return Err(format!(
                    "gate {gate}: ledger fold {folded} diverged from sampled n_bar {n_bar}"
                ));
            }
            if saturated {
                continue;
            }
            let recombined = duration_loss + motional_loss;
            let tol = 1e-9 * log_loss.abs().max(1e-300);
            if (recombined - log_loss).abs() > tol {
                return Err(format!(
                    "gate {gate}: duration + motional = {recombined} != log loss {log_loss}"
                ));
            }
            let split = zero_point_loss + heat_loss;
            let tol = 1e-9 * motional_loss.abs().max(1e-300);
            if (split - motional_loss).abs() > tol {
                return Err(format!(
                    "gate {gate}: zero-point + heat = {split} != motional loss {motional_loss}"
                ));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn attribution_identities_hold_on_all_topologies(
        topology in topology_strategy(),
        qubits in 4u32..=12,
        gates in 1usize..=60,
        seed in any::<u64>(),
        congestion in any::<bool>(),
        realistic in any::<bool>(),
    ) {
        let traps = topology.num_traps();
        let comm = 2u32;
        let per_trap = qubits.div_ceil(traps) + 1;
        let spec = MachineSpec::new(topology, per_trap + comm, comm)
            .expect("constructed spec is valid");
        let circuit = random_circuit(qubits, gates, seed);
        let router = if congestion {
            RouterPolicy::congestion()
        } else {
            RouterPolicy::Serial
        };
        let model = if realistic {
            TimingModel::realistic()
        } else {
            TimingModel::ideal()
        };
        let params = SimParams::default();
        let config = CompilerConfig::optimized().with_router(router);
        let result = compile(&circuit, &spec, &config).expect("benchmark fits machine");

        // Untimed replay: identities plus bit-for-bit report parity with
        // the plain simulator.
        let attr = attribute_fidelity(&result.schedule, &circuit, &spec, &params)
            .expect("compiled schedules replay");
        if let Err(msg) = check_attribution(&attr) {
            prop_assert!(false, "untimed: {}", msg);
        }
        let plain = simulate(&result.schedule, &circuit, &spec, &params)
            .expect("compiled schedules replay");
        if let Err(msg) = check_reports_bit_equal(&attr.report, &plain) {
            prop_assert!(false, "untimed attribution vs plain: {}", msg);
        }

        // Timed replay against the transport schedule and timing model.
        let attr = attribute_fidelity_timed(
            &result.schedule,
            &result.transport,
            &circuit,
            &spec,
            &params,
            &model,
        )
        .expect("compiled schedules replay timed");
        if let Err(msg) = check_attribution(&attr) {
            prop_assert!(false, "timed: {}", msg);
        }
        let plain = simulate_timed(
            &result.schedule,
            &result.transport,
            &circuit,
            &spec,
            &params,
            &model,
        )
        .expect("compiled schedules replay timed");
        if let Err(msg) = check_reports_bit_equal(&attr.report, &plain) {
            prop_assert!(false, "timed attribution vs plain: {}", msg);
        }
    }
}

/// The paper's own machine shape: a 16-qubit QFT on the six-trap L6 spec
/// must shuttle, so the attribution must blame real heat — deposits with
/// provenance, a non-trivial heat loss, and a blame pass whose per-deposit
/// `blamed_log_loss` re-aggregates to the gates' total heat loss.
#[test]
fn qft_on_paper_machine_blames_real_heat() {
    let circuit = muzzle_shuttle::circuit::generators::qft(16);
    let spec = MachineSpec::paper_l6();
    let params = SimParams::default();
    let model = TimingModel::realistic();
    let config = CompilerConfig::optimized().with_router(RouterPolicy::congestion());
    let result = compile(&circuit, &spec, &config).expect("QFT compiles on the paper machine");
    let attr = attribute_fidelity_timed(
        &result.schedule,
        &result.transport,
        &circuit,
        &spec,
        &params,
        &model,
    )
    .expect("QFT replays on the paper machine");
    check_attribution(&attr).expect("attribution identities hold");
    assert!(attr.identity_holds());

    assert!(
        attr.gate_heat_loss > 0.0,
        "a shuttling QFT must lose fidelity to deposited heat"
    );
    assert!(
        attr.shuttle_pulse_loss > 0.0,
        "a 16-qubit QFT cannot be local on 17-ion traps"
    );

    // The blame pass conserves heat loss: summing every deposit's
    // blamed share re-aggregates the gates' total heat loss.
    let blamed: f64 = attr
        .ledger
        .deposits
        .iter()
        .flatten()
        .map(|d| d.blamed_log_loss)
        .sum();
    let tol = 1e-9 * attr.gate_heat_loss.abs();
    assert!(
        (blamed - attr.gate_heat_loss).abs() <= tol,
        "blame must conserve heat loss: {blamed} vs {}",
        attr.gate_heat_loss
    );

    let worst = attr.worst_gates(5);
    assert!(!worst.is_empty());
    for pair in worst.windows(2) {
        assert!(
            pair[0].log_loss() >= pair[1].log_loss(),
            "worst gates must be sorted by descending log loss"
        );
    }
    let hottest = attr.hottest_traps(3);
    assert!(!hottest.is_empty());
    assert!(
        hottest.iter().any(|&(_, blamed, _)| blamed > 0.0),
        "some trap must carry blamed heat loss"
    );
    assert!(
        !attr.costliest_shuttles(3).is_empty(),
        "a shuttling program must have shuttle blame rows"
    );
}
