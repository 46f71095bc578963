//! One pass of a workload: every compile entry call on every circuit, each
//! followed by its `simulate_timed` replay.

use crate::workload::{Entry, Inputs};
use qccd_core::{compile, CompileResult};
use qccd_machine::Operation;
use qccd_pack::{compile_clock, ClockStats};
use qccd_sim::{simulate_timed, SimParams, SimReport};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::time::Instant;

/// What one compile entry call produced.
#[derive(Debug, Clone)]
pub struct Output {
    /// The compiled program.
    pub result: CompileResult,
    /// The clock pipeline's race stats (`compile_clock` entries only).
    pub clock: Option<ClockStats>,
    /// Its timed replay.
    pub sim: SimReport,
    /// Seconds in the compile entry call.
    pub compile_s: f64,
    /// Seconds in `simulate_timed`.
    pub sim_s: f64,
}

/// The quality of one output, plus a fingerprint of the whole program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Digest {
    /// Hash of the schedule, transport rounds, timeline makespan, race
    /// stats and replay figures; equal outputs hash equal.
    pub print: u64,
    /// Shuttle hops.
    pub shuttles: usize,
    /// Transport rounds.
    pub depth: usize,
    /// Replayed timed makespan, µs.
    pub makespan_us: f64,
    /// Replayed log program fidelity, nats.
    pub log_fidelity: f64,
}

impl Output {
    /// This output's digest.
    pub fn digest(&self) -> Digest {
        let r = &self.result;
        let mut h = DefaultHasher::new();
        format!("{:?}", r.schedule.initial_mapping).hash(&mut h);
        for op in &r.schedule.operations {
            match *op {
                Operation::Gate { gate, trap } => (0u8, gate, trap).hash(&mut h),
                Operation::Shuttle { ion, from, to } => (1u8, ion, from, to).hash(&mut h),
            }
        }
        for round in &r.transport.rounds {
            round.moves.len().hash(&mut h);
            for m in &round.moves {
                (m.ion, m.from, m.to).hash(&mut h);
            }
        }
        format!("{:?}", self.clock).hash(&mut h);
        let makespan_us = self.sim.timed_makespan_us;
        let log_fidelity = self.sim.log_program_fidelity;
        (
            r.stats.shuttles,
            r.timeline.makespan_us.to_bits(),
            makespan_us.to_bits(),
            log_fidelity.to_bits(),
        )
            .hash(&mut h);
        Digest {
            print: h.finish(),
            shuttles: r.stats.shuttles,
            depth: r.transport.depth(),
            makespan_us,
            log_fidelity,
        }
    }
}

/// Runs every entry call of `inputs`' workload on every circuit, handing
/// each output to `visit` in circuit-major order, and returns the pass's
/// wall seconds: the time in the calls, not in `visit`.
pub fn run_pass(inputs: &Inputs, mut visit: impl FnMut(Result<Output, String>)) -> f64 {
    let entries = inputs.workload.entries();
    let params = SimParams::default();
    let mut wall_s = 0.0;
    for (_, circuit) in &inputs.circuits {
        for entry in &entries {
            let t = Instant::now();
            let out = run_entry(entry, circuit, inputs, &params);
            wall_s += t.elapsed().as_secs_f64();
            visit(out);
        }
    }
    wall_s
}

/// One compile entry call followed by its replay.
pub fn run_entry(
    entry: &Entry,
    circuit: &qccd_circuit::Circuit,
    inputs: &Inputs,
    params: &SimParams,
) -> Result<Output, String> {
    let spec = &inputs.spec;
    let t = Instant::now();
    let (result, clock) = match entry {
        Entry::Compile(config) => (
            compile(black_box(circuit), spec, config).map_err(|e| e.to_string())?,
            None,
        ),
        Entry::Clock(config) => {
            let (result, stats) =
                compile_clock(black_box(circuit), spec, config).map_err(|e| e.to_string())?;
            (result, Some(stats))
        }
    };
    let compile_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let sim = simulate_timed(
        &result.schedule,
        &result.transport,
        circuit,
        spec,
        params,
        &entry.config().timing,
    )
    .map_err(|e| e.to_string())?;
    let sim_s = t.elapsed().as_secs_f64();
    Ok(black_box(Output {
        result,
        clock,
        sim,
        compile_s,
        sim_s,
    }))
}
