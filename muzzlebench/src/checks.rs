//! Output checks, run outside the timed region. Each validator call is
//! timed too, which gives the traced run its validation layer times.

use crate::pass::{Digest, Output};
use crate::workload::{Inputs, Workload};
use qccd_circuit::Circuit;
use qccd_core::CompileResult;
use qccd_machine::MachineSpec;
use std::time::Instant;

/// The outcome of checking one output.
#[derive(Debug, Clone, Default)]
pub struct Checked {
    /// The first violated check, if any.
    pub failure: Option<String>,
    /// Seconds in `Schedule::validate`.
    pub schedule_validate_s: f64,
    /// Seconds in `TransportSchedule::validate` or `validate_relaxed`.
    pub transport_validate_s: f64,
}

/// Replays `out`, compiled from circuit `circuit`, through every
/// validator: `Schedule::validate`, the transport validator the result
/// answers to, and `Timeline::validate`; then checks that the replay agrees
/// with the compiler's own figures and, for `compile_clock` results, that
/// the race stats describe the returned timeline.
pub fn check_output(inputs: &Inputs, circuit: usize, out: &Output) -> Checked {
    let r = &out.result;
    let mut checked = validate_timed(
        &inputs.circuits[circuit].1,
        &inputs.spec,
        r,
        inputs.workload.relaxed_transport(),
    );
    if checked.failure.is_some() {
        return checked;
    }
    checked.failure = if let Err(e) = r.timeline.validate() {
        Some(format!("timeline invalid: {e}"))
    } else if r.stats.shuttles != r.schedule.shuttle_count()
        || out.sim.shuttles != r.stats.shuttles
        || r.stats.transport_depth != r.transport.depth()
    {
        Some("shuttle or depth counts disagree with the schedule".to_owned())
    } else if out.sim.timed_makespan_us.to_bits() != r.timeline.makespan_us.to_bits() {
        Some("replayed makespan differs from the compiled timeline".to_owned())
    } else {
        out.clock.and_then(|c| {
            (c.chosen_makespan_us.to_bits() != r.timeline.makespan_us.to_bits()
                || c.chosen_makespan_us > c.packed_makespan_us)
                .then(|| "clock race stats disagree with the returned timeline".to_owned())
        })
    };
    checked
}

/// Runs `Schedule::validate` and the transport validator (`relaxed` picks
/// `validate_relaxed`) on `r`, timing each.
pub fn validate_timed(
    circuit: &Circuit,
    spec: &MachineSpec,
    r: &CompileResult,
    relaxed: bool,
) -> Checked {
    let t = Instant::now();
    let schedule = r.schedule.validate(circuit, spec);
    let schedule_validate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let transport = if relaxed {
        r.transport.validate_relaxed(&r.schedule, spec)
    } else {
        r.transport.validate(&r.schedule, spec)
    };
    let transport_validate_s = t.elapsed().as_secs_f64();
    let failure = match (schedule, transport) {
        (Err(e), _) => Some(format!("schedule invalid: {e}")),
        (_, Err(e)) => Some(format!("transport invalid: {e}")),
        _ => None,
    };
    Checked {
        failure,
        schedule_validate_s,
        transport_validate_s,
    }
}

/// Checks one slot of a pass: its check report, and its digest when the
/// output exists and passed every check. Failures are named on stderr.
pub fn verdict(
    inputs: &Inputs,
    slot: usize,
    out: &Result<Output, String>,
) -> (Checked, Option<Digest>) {
    let per = inputs.workload.entries().len();
    let checked = match out {
        Ok(out) => check_output(inputs, slot / per, out),
        Err(e) => Checked {
            failure: Some(e.clone()),
            ..Checked::default()
        },
    };
    if let Some(why) = &checked.failure {
        let name = &inputs.circuits[slot / per].0;
        eprintln!("failed: {name}, entry {}: {why}", slot % per);
    }
    let digest = match out {
        Ok(out) if checked.failure.is_none() => Some(out.digest()),
        _ => None,
    };
    (checked, digest)
}

/// Applies the paper's invariant to a checked `paper125` pass: each named
/// benchmark's optimized result must not shuttle more than its baseline
/// (Table II), and the random circuits must not in total (the paper claims
/// their mean). A violating optimized result fails. Returns how many random
/// circuits shuttle more under the optimized compiler, which the paper
/// allows one by one.
pub fn paper_invariant(inputs: &Inputs, digests: &mut [Option<Digest>]) -> usize {
    if inputs.workload != Workload::Paper125 {
        return 0;
    }
    let shuttles = |pair: &[Option<Digest>]| match pair {
        [Some(base), Some(opt)] => Some((base.shuttles, opt.shuttles)),
        _ => None,
    };
    let (named, random) = digests.split_at_mut(2 * inputs.named);
    for (pair, (name, _)) in named.chunks_mut(2).zip(&inputs.circuits) {
        if let Some((base, opt)) = shuttles(pair).filter(|(b, o)| o > b) {
            eprintln!("failed: {name}: optimized {opt} shuttles > baseline {base}");
            pair[1] = None;
        }
    }
    let pairs: Vec<(usize, usize)> = random.chunks(2).filter_map(shuttles).collect();
    let (base, opt) = pairs
        .iter()
        .fold((0, 0), |(b, o), (pb, po)| (b + pb, o + po));
    if opt > base {
        eprintln!("failed: random suite: optimized {opt} shuttles > baseline {base}");
        for pair in random.chunks_mut(2) {
            pair[1] = None;
        }
    }
    pairs.iter().filter(|(b, o)| o > b).count()
}

/// Checks a whole pass: each slot's check report and digest (`None` for
/// a failed slot).
pub fn check_pass(
    inputs: &Inputs,
    outputs: &[Result<Output, String>],
) -> (Vec<Checked>, Vec<Option<Digest>>) {
    let (checked, mut digests): (Vec<_>, Vec<_>) = outputs
        .iter()
        .enumerate()
        .map(|(slot, out)| verdict(inputs, slot, out))
        .unzip();
    paper_invariant(inputs, &mut digests);
    (checked, digests)
}

/// Failed slots of a checked pass.
pub fn failures(digests: &[Option<Digest>]) -> u64 {
    digests.iter().filter(|d| d.is_none()).count() as u64
}

/// Failures of a later pass: every slot that is not bit-identical to the
/// checked first pass's (instrumentation and repetition must never change
/// a result).
pub fn diverged(first: &[Option<Digest>], later: &[Option<Digest>]) -> u64 {
    first
        .iter()
        .zip(later)
        .filter(|(a, b)| !matches!((a, b), (Some(a), Some(b)) if a.print == b.print))
        .count() as u64
}
