//! The clock objective's scoring harness: an incremental
//! [`DeltaScorer`] threaded through the compile loop.
//!
//! Under [`Objective::Clock`](crate::config::Objective::Clock) the
//! scheduler commits every emitted operation into this fold (each shuttle
//! as a synthetic single-hop round, exactly the transport-less
//! [`lower`](qccd_timing::lower) fold), so at every open decision the
//! *projected* makespan of each candidate is a speculative advance from
//! the live checkpoint — never an O(n) re-lower. Chunked advancing is
//! bit-for-bit equal to one whole-schedule `lower` call (property-tested
//! in `qccd-timing`), so the fold's final makespan is exactly what a fresh
//! `lower(schedule, None, ..)` of the committed schedule reports — the
//! invariant the objective property tests pin.
//!
//! Speculation itself runs in one of two bit-for-bit identical modes
//! ([`ScoreMode`]): the O(delta) path that touches only the candidate's
//! resources with undo records, or the full re-lower oracle
//! (`ScoreMode::Full`) that replays the whole committed schedule plus
//! the candidate from the initial mapping — O(n) per candidate, the
//! naive baseline the delta engine replaces, kept as the differential
//! reference. The `delta_properties` harness and the `delta_regression`
//! pins hold the two modes to each other on every decision and on every
//! paper benchmark.

use crate::config::ScoreMode;
use qccd_circuit::Circuit;
use qccd_machine::{InitialMapping, IonId, MachineSpec, Operation, TrapId, TrapTopology};
use qccd_timing::{DeltaScorer, LowerError, TimingModel};

/// Candidate walks priced by [`ClockScorer::score_walk`] across all
/// compiles (every speculative advance, both score modes).
static CANDIDATES_SCORED: qccd_obs::Counter = qccd_obs::Counter::new("core.candidates_scored");

/// The threaded fold plus the timing model and scoring mode it runs
/// under.
#[derive(Debug, Clone)]
pub(crate) struct ClockScorer {
    delta: DeltaScorer,
    model: TimingModel,
    mode: ScoreMode,
    /// Reused buffer for one candidate walk's shuttle ops.
    ops: Vec<Operation>,
}

impl ClockScorer {
    /// Starts the fold at time zero over `mapping`.
    pub fn new(
        mapping: &InitialMapping,
        spec: &MachineSpec,
        model: &TimingModel,
        mode: ScoreMode,
    ) -> Result<Self, LowerError> {
        Ok(ClockScorer {
            delta: DeltaScorer::new(mapping, spec, model)?,
            model: *model,
            mode,
            ops: Vec::new(),
        })
    }

    /// The scoring model (the compiler config's timing model).
    pub fn model(&self) -> TimingModel {
        self.model
    }

    /// Candidates scored so far (for the `clock_speculations` counter).
    pub fn speculations(&self) -> usize {
        self.delta.speculations()
    }

    /// Advances the fold through one committed operation. Errors are
    /// compiler bugs (the machine state already accepted the operation),
    /// surfaced as typed internal errors, never silent.
    pub fn commit(
        &mut self,
        op: &Operation,
        circuit: &Circuit,
        spec: &MachineSpec,
    ) -> Result<(), LowerError> {
        self.delta.commit(op, circuit, spec)
    }

    /// The fold's makespan so far, µs.
    pub fn makespan_us(&self) -> f64 {
        self.delta.makespan_us()
    }

    /// Projected makespan after speculatively walking `ion` along the
    /// inclusive trap path `path` from the live checkpoint. `None` when
    /// the walk is illegal from here (e.g. a full trap on the way) — the
    /// candidate needs evictions this score cannot price. `committed` is
    /// every operation committed so far; only `ScoreMode::Full` reads it.
    pub fn score_walk(
        &mut self,
        ion: IonId,
        path: &[TrapId],
        committed: &[Operation],
        circuit: &Circuit,
        spec: &MachineSpec,
    ) -> Option<f64> {
        let _phase = qccd_obs::span("scoring");
        CANDIDATES_SCORED.incr();
        self.ops.clear();
        self.ops.extend(path.windows(2).map(|w| Operation::Shuttle {
            ion,
            from: w[0],
            to: w[1],
        }));
        match self.mode {
            ScoreMode::Full => self
                .delta
                .score_ops_full(committed, &self.ops, circuit, spec),
            ScoreMode::Delta => self.delta.score_ops(&self.ops, circuit, spec),
        }
    }
}

/// Relative timed weight of traversing the segment `a → b` under `model`,
/// in sixteenths of a plain (junction-free) hop, never below 1 — the
/// [`EdgeWeightFn`](qccd_route::EdgeWeightFn) the clock objective feeds
/// the route planner so corridors price by device time, not unit hops.
/// Junction-free topologies (the paper's linear machines) weigh every
/// segment identically, reproducing unit-hop routing exactly.
pub(crate) fn edge_weight(
    model: &TimingModel,
    topology: &TrapTopology,
    a: TrapId,
    b: TrapId,
) -> u32 {
    let base = model.hop_us(0);
    if base <= 0.0 {
        return 1;
    }
    let junctions = TimingModel::junctions_crossed(topology, a, b);
    (((model.hop_us(junctions) / base) * 16.0).round() as u32).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_machine::TrapTopology;

    #[test]
    fn edge_weight_is_flat_on_linear_and_junction_heavy_on_grids() {
        let model = TimingModel::realistic();
        let line = TrapTopology::linear(4);
        assert_eq!(edge_weight(&model, &line, TrapId(0), TrapId(1)), 16);
        let grid = TrapTopology::grid(3, 3);
        // Hopping into the grid centre crosses junction endpoints: the
        // weighted cost must exceed a plain hop.
        assert!(edge_weight(&model, &grid, TrapId(1), TrapId(4)) > 16);
        // The ideal model prices junctions at nothing: flat everywhere.
        let ideal = TimingModel::ideal();
        assert_eq!(edge_weight(&ideal, &grid, TrapId(1), TrapId(4)), 16);
    }

    #[test]
    fn scorer_commit_tracks_walks_and_speculation_is_free() {
        use qccd_circuit::Circuit;
        use qccd_machine::MachineSpec;

        let spec = MachineSpec::linear(3, 4, 1).unwrap();
        let mapping = InitialMapping::round_robin(&spec, 6).unwrap();
        let circuit = Circuit::new(6);
        let model = TimingModel::realistic();
        for mode in [ScoreMode::Delta, ScoreMode::Full] {
            let mut scorer = ClockScorer::new(&mapping, &spec, &model, mode).unwrap();
            assert_eq!(scorer.makespan_us(), 0.0);

            // Speculate a 2-hop walk, twice: identical projections, no
            // drift.
            let ion = IonId(0);
            let path = [TrapId(0), TrapId(1), TrapId(2)];
            let a = scorer.score_walk(ion, &path, &[], &circuit, &spec).unwrap();
            let b = scorer.score_walk(ion, &path, &[], &circuit, &spec).unwrap();
            assert_eq!(a, b);
            assert_eq!(scorer.makespan_us(), 0.0, "speculation never commits");

            // Committing the walk lands exactly on the projection.
            for w in path.windows(2) {
                scorer
                    .commit(
                        &Operation::Shuttle {
                            ion,
                            from: w[0],
                            to: w[1],
                        },
                        &circuit,
                        &spec,
                    )
                    .unwrap();
            }
            assert_eq!(scorer.makespan_us(), a);
        }
    }

    /// The two scoring modes are interchangeable: identical projections
    /// for identical walks from identical folds.
    #[test]
    fn delta_and_full_modes_project_identically() {
        use qccd_circuit::Circuit;
        use qccd_machine::MachineSpec;

        let spec = MachineSpec::new(TrapTopology::grid(2, 3), 4, 1).unwrap();
        let mapping = InitialMapping::round_robin(&spec, 10).unwrap();
        let circuit = Circuit::new(10);
        let model = TimingModel::realistic();
        let mut delta = ClockScorer::new(&mapping, &spec, &model, ScoreMode::Delta).unwrap();
        let mut full = ClockScorer::new(&mapping, &spec, &model, ScoreMode::Full).unwrap();
        // round_robin fills sequentially (3 per trap): ions 0-2 in T0,
        // 3-5 in T1, 6-8 in T2, 9 in T3.
        let walks: Vec<(IonId, Vec<TrapId>)> = vec![
            (IonId(0), vec![TrapId(0), TrapId(1), TrapId(2)]),
            (IonId(9), vec![TrapId(3), TrapId(4)]),
            (IonId(3), vec![TrapId(1), TrapId(4), TrapId(5)]),
        ];
        let mut committed = Vec::new();
        for (ion, path) in &walks {
            let d = delta.score_walk(*ion, path, &committed, &circuit, &spec);
            let f = full.score_walk(*ion, path, &committed, &circuit, &spec);
            assert_eq!(d, f, "walk of ion {ion:?} along {path:?}");
            // Commit the first hop so later walks price from a moved fold.
            let op = Operation::Shuttle {
                ion: *ion,
                from: path[0],
                to: path[1],
            };
            delta.commit(&op, &circuit, &spec).unwrap();
            full.commit(&op, &circuit, &spec).unwrap();
            committed.push(op);
            assert_eq!(delta.makespan_us(), full.makespan_us());
        }
    }
}
