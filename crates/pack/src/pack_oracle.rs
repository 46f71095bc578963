//! The collect-every-timeline `pack`, kept as the differential oracle of
//! fold-only candidate scoring: every candidate is lowered into a full
//! [`Timeline`], the running best keeps its timeline, and the post-plan
//! candidates are offered even when the plan changed no op. The scoring
//! [`pack`] must return the same schedule, transport, timeline and
//! [`PackStats`] bit for bit. The oracle lowers each candidate in the
//! nested [`TransportSchedule`] form, so it also checks that scoring the
//! flat rounds folds the same clocks.

use crate::layers::plan_layers;
use crate::{
    compile_packed, cross_gate_rewrites, keep_faster, pack, validate_equivalent, PackConfig,
    PackError, PackStats, Packed, Rewrite,
};
use proptest::prelude::*;
use qccd_circuit::generators::random_circuit;
use qccd_circuit::Circuit;
use qccd_core::{compile, CompileResult, CompilerConfig, Objective, RouterPolicy};
use qccd_machine::{MachineSpec, Schedule, TrapTopology};
use qccd_route::TransportSchedule;
use qccd_timing::{lower, Timeline, TimingModel};

fn oracle_pack(
    result: &CompileResult,
    circuit: &Circuit,
    spec: &MachineSpec,
    config: &PackConfig,
) -> Result<Packed, PackError> {
    let input_timeline = if result.timing == config.model {
        result.timeline.clone()
    } else {
        lower(
            &result.schedule,
            Some(&result.transport),
            circuit,
            spec,
            &config.model,
        )?
    };
    let mapping = &result.schedule.initial_mapping;
    let mut best: Option<(Program, Timeline)> = None;
    let mut offer = |rewrite: Rewrite| -> Result<(), PackError> {
        let c = Program {
            schedule: Schedule::new(mapping.clone(), rewrite.ops.into_owned()),
            transport: rewrite.rounds.into_schedule(),
            hoisted_hops: rewrite.hoisted_hops,
            replanned_runs: rewrite.replanned_runs,
            dropped_hops: rewrite.dropped_hops,
        };
        let timeline = lower(
            &c.schedule,
            Some(&c.transport),
            circuit,
            spec,
            &config.model,
        )?;
        keep_faster(&mut best, (c, timeline), |c| c.1.makespan_us);
        Ok(())
    };
    if let Ok(greedy) = TransportSchedule::pack_concurrent(&result.schedule, spec) {
        offer(Rewrite {
            ops: result.schedule.operations.clone().into(),
            rounds: greedy.into(),
            hoisted_hops: 0,
            replanned_runs: 0,
            dropped_hops: 0,
        })?;
    }
    for r in cross_gate_rewrites(&result.schedule, spec) {
        offer(r)?;
    }
    let planned = plan_layers(
        &result.schedule,
        &result.transport,
        circuit,
        spec,
        &config.model,
    )?;
    if planned.replanned_runs > 0 {
        let schedule = Schedule::new(result.schedule.initial_mapping.clone(), planned.ops);
        for mut r in cross_gate_rewrites(&schedule, spec) {
            r.replanned_runs = planned.replanned_runs;
            r.dropped_hops = planned.dropped_hops;
            offer(r)?;
        }
    }
    let input_depth = result.transport.depth();
    Ok(
        match best.filter(|c| c.1.makespan_us < input_timeline.makespan_us) {
            Some((c, timeline)) => {
                validate_equivalent(&result.schedule, &c.schedule, circuit, spec)?;
                c.transport
                    .validate(&c.schedule, spec)
                    .map_err(PackError::Transport)?;
                timeline
                    .validate()
                    .map_err(|e| PackError::InvalidPacked(e.to_string()))?;
                let stats = PackStats {
                    input_depth,
                    packed_depth: c.transport.depth(),
                    input_makespan_us: input_timeline.makespan_us,
                    packed_makespan_us: timeline.makespan_us,
                    hoisted_hops: c.hoisted_hops,
                    replanned_runs: c.replanned_runs,
                    dropped_hops: c.dropped_hops,
                    improved: true,
                };
                Packed {
                    schedule: c.schedule,
                    transport: c.transport,
                    timeline,
                    stats,
                }
            }
            None => Packed {
                schedule: result.schedule.clone(),
                transport: result.transport.clone(),
                stats: PackStats {
                    input_depth,
                    packed_depth: input_depth,
                    input_makespan_us: input_timeline.makespan_us,
                    packed_makespan_us: input_timeline.makespan_us,
                    improved: false,
                    ..PackStats::default()
                },
                timeline: input_timeline,
            },
        },
    )
}

/// A candidate in the nested form the packer once held every candidate in.
struct Program {
    schedule: Schedule,
    transport: TransportSchedule,
    hoisted_hops: usize,
    replanned_runs: usize,
    dropped_hops: usize,
}

/// Bit-level equality of two packings: `f64` fields compare by bits.
fn assert_same(got: &Packed, want: &Packed) -> Result<(), String> {
    prop_assert_eq!(&got.schedule, &want.schedule);
    prop_assert_eq!(&got.transport, &want.transport);
    prop_assert_eq!(
        format!("{:?}", got.timeline),
        format!("{:?}", want.timeline)
    );
    prop_assert_eq!(
        got.timeline.makespan_us.to_bits(),
        want.timeline.makespan_us.to_bits()
    );
    prop_assert_eq!(got.stats, want.stats);
    prop_assert_eq!(
        got.stats.packed_makespan_us.to_bits(),
        want.stats.packed_makespan_us.to_bits()
    );
    Ok(())
}

/// A random circuit compiled on the packed stack's input router, on a
/// linear, ring or grid machine, lowered under `timing`. The clock
/// objective's schedules are the ones the layer planner rewrites.
fn compiled(
    topology: u32,
    gates: usize,
    seed: u64,
    timing: TimingModel,
    objective: Objective,
) -> (Circuit, MachineSpec, CompileResult) {
    let topology = match topology {
        0 => TrapTopology::linear(4),
        1 => TrapTopology::ring(5),
        _ => TrapTopology::grid(2, 3),
    };
    let spec = MachineSpec::new(topology, 6, 2).expect("valid spec");
    let circuit = random_circuit(14, gates, seed);
    let config = CompilerConfig::optimized()
        .with_router(RouterPolicy::congestion())
        .with_lookahead(true)
        .with_timing(timing)
        .with_objective(objective);
    let result = compile(&circuit, &spec, &config).expect("compiles");
    (circuit, spec, result)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fold-only scoring returns the oracle's packing under both timing
    /// models, scored both with the compile's own model (borrowed input
    /// timeline) and with the other one (re-lowered input).
    #[test]
    fn fold_scoring_equals_the_collect_every_timeline_oracle(
        topology in 0u32..3,
        gates in 20usize..160,
        seed in any::<u64>(),
        compile_realistic in any::<bool>(),
        clock in any::<bool>(),
    ) {
        let timing = if compile_realistic { TimingModel::realistic() } else { TimingModel::ideal() };
        let objective = if clock { Objective::Clock } else { Objective::Shuttles };
        let (circuit, spec, result) = compiled(topology, gates, seed, timing, objective);
        for model in [TimingModel::ideal(), TimingModel::realistic()] {
            let config = PackConfig::for_model(model);
            let got = pack(&result, &circuit, &spec, &config).expect("packs");
            let want = oracle_pack(&result, &circuit, &spec, &config).expect("packs");
            assert_same(&got, &want)?;
        }
    }
}

/// Random sampling rarely adopts a layer-planned candidate, so this
/// fixed sample matches the oracle where one wins (on the grid), and
/// checks that it also re-plans runs into new programs and into the
/// input program (the case scoring skips).
#[test]
fn fixed_sample_adopts_layer_planned_candidates_like_the_oracle() {
    let model = TimingModel::realistic();
    let config = PackConfig::for_model(model);
    let (mut planned_wins, mut changed, mut unchanged) = (0, 0, 0);
    for seed in 24..34u64 {
        for (topology, gates) in [(0, 60), (1, 60), (2, 60), (2, 150)] {
            let (circuit, spec, result) = compiled(topology, gates, seed, model, Objective::Clock);
            let planned = plan_layers(&result.schedule, &result.transport, &circuit, &spec, &model)
                .expect("plans");
            if planned.replanned_runs > 0 {
                if planned.ops == result.schedule.operations {
                    unchanged += 1;
                } else {
                    changed += 1;
                }
            }
            let got = pack(&result, &circuit, &spec, &config).expect("packs");
            let want = oracle_pack(&result, &circuit, &spec, &config).expect("packs");
            assert_same(&got, &want).unwrap();
            planned_wins += usize::from(got.stats.replanned_runs > 0);
        }
    }
    assert!(
        planned_wins > 0 && changed > 0 && unchanged > 0,
        "{planned_wins} {changed} {unchanged}"
    );
}

/// `compile_packed` drops the compile's timeline while it packs and, when
/// no candidate wins, lowers the input again: it must return what
/// compiling and then running the oracle returns, timeline included, bit
/// for bit, whether or not packing improved.
#[test]
fn compile_packed_equals_compile_then_the_oracle() {
    let (mut improved, mut kept) = (0, 0);
    for seed in 1..9u64 {
        for (topology, timing) in [
            (0, TimingModel::ideal()),
            (1, TimingModel::realistic()),
            (2, TimingModel::ideal()),
            (2, TimingModel::realistic()),
        ] {
            for objective in [Objective::Shuttles, Objective::Clock] {
                let (circuit, spec, result) = compiled(topology, 40, seed, timing, objective);
                let config = CompilerConfig::optimized()
                    .with_router(RouterPolicy::congestion())
                    .with_timing(timing)
                    .with_objective(objective);
                let (got, stats) = compile_packed(&circuit, &spec, &config).expect("packs");
                let want = oracle_pack(&result, &circuit, &spec, &PackConfig::for_model(timing))
                    .expect("packs");
                assert_eq!(stats, want.stats);
                assert_eq!(got.schedule, want.schedule);
                assert_eq!(got.transport, want.transport);
                assert_eq!(got.timeline, want.timeline);
                assert_eq!(
                    got.timeline.makespan_us.to_bits(),
                    want.timeline.makespan_us.to_bits()
                );
                assert_eq!(got.stats.transport_depth, want.transport.depth());
                if stats.improved {
                    improved += 1;
                } else {
                    kept += 1;
                }
            }
        }
    }
    assert!(improved > 0 && kept > 0, "{improved} improved, {kept} kept");
}
