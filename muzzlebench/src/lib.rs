//! Benchmark of the muzzle-shuttle compiler.
//!
//! One run measures one workload in a fresh process. With tracing off it
//! reports the end-to-end metrics; with tracing on, the per-layer metrics
//! ([`layers`]). Every compiled result is checked outside the timed region
//! ([`checks`]), and every later pass must reproduce the first bit for bit.
//! `BENCHMARK.json` at the repository root names the metrics, their units
//! and bounds, and why each workload was chosen.

pub mod checks;
pub mod layers;
pub mod pass;
pub mod report;
pub mod workload;

use checks::{diverged, failures, paper_invariant, verdict};
use pass::{run_entry, run_pass, Digest, Output};
use qccd_core::CompilerConfig;
use qccd_sim::SimParams;
use report::{median, metric, peak_rss_mb, ratio, Report};
use std::time::Instant;
use workload::{prefix, Entry, Inputs, Scale, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Least passes of an untraced run.
const MIN_PASSES: usize = 3;
/// Gates of the warm-up compile run during set-up.
const WARMUP_GATES: usize = 2_000;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds to keep measuring.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// metrics.
    pub trace: bool,
}

/// One set-up: generates the inputs, builds the machine, and warms up with
/// every entry call on a prefix of the first circuit.
pub fn setup(workload: Workload, seed: u64, scale: Scale) -> (Inputs, f64) {
    let start = Instant::now();
    let inputs = Inputs::generate(workload, seed, scale);
    let first = &inputs.circuits[0].1;
    let warm = prefix(first, first.len().min(WARMUP_GATES));
    for entry in workload.entries() {
        // A warm-up failure shows again, and is counted, in the first pass.
        let _ = run_entry(&entry, &warm, &inputs, &SimParams::default());
    }
    (inputs, start.elapsed().as_secs_f64())
}

/// Runs the benchmark described by `opts`.
pub fn run(opts: &Options) -> Report {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    for _ in 0..SETUPS {
        let (i, s) = setup(opts.workload, opts.seed, Scale::Full);
        setups.push(s);
        inputs = Some(i);
    }
    let inputs = inputs.expect("SETUPS is positive");
    if opts.trace {
        layers::traced_run(&inputs, opts.seconds)
    } else {
        untraced_run(&inputs, opts.seconds, median(&setups), &mut |_| {})
    }
}

/// Whether another round of `last` seconds still fits in `seconds` since
/// `start`.
pub(crate) fn fits(start: Instant, last: f64, seconds: f64) -> bool {
    start.elapsed().as_secs_f64() + last <= seconds
}

/// Passes with tracing off while another fits in `seconds` (at least
/// three); the first pass is checked, the rest must equal it.
/// `tamper` sees every output before it is checked; the benchmark passes a
/// no-op, tests corrupt outputs with it.
pub fn untraced_run(
    inputs: &Inputs,
    seconds: f64,
    setup_s: f64,
    tamper: &mut dyn FnMut(&mut Result<Output, String>),
) -> Report {
    let start = Instant::now();
    let mut report = Report::default();
    let mut walls = Vec::new();
    let mut compiles = Vec::new();
    let mut first: Vec<Option<Digest>> = Vec::new();
    let mut worse_circuits = 0;
    let mut last = 0.0;
    while walls.len() < MIN_PASSES || fits(start, last, seconds) {
        let round = Instant::now();
        let mut digests = Vec::with_capacity(first.len());
        let wall_s = run_pass(inputs, |mut out| {
            tamper(&mut out);
            if let Ok(o) = &out {
                compiles.push(o.compile_s);
            }
            digests.push(if walls.is_empty() {
                verdict(inputs, digests.len(), &out).1
            } else {
                out.ok().map(|o| o.digest())
            });
        });
        report.attempted += digests.len() as u64;
        if walls.is_empty() {
            worse_circuits = paper_invariant(inputs, &mut digests);
            report.failed += failures(&digests);
            first = digests;
        } else {
            report.failed += diverged(&first, &digests);
        }
        walls.push(wall_s);
        last = round.elapsed().as_secs_f64();
    }
    let q = Quality::of(inputs, &first, &mut report);
    report.metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("wall_s", median(&walls), "s"),
        metric("compile_s.p50", median(&compiles), "s"),
        metric("shuttles", q.shuttles, "hops"),
        metric("transport_depth", q.depth, "rounds"),
        metric("makespan_us", q.makespan_us, "us"),
        metric("neg_log_fidelity", -q.log_fidelity, "nats"),
        metric("shuttle_ratio", q.shuttle_ratio, "ratio"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    report.info = vec![
        metric("log_fidelity", q.log_fidelity, "nats"),
        metric("shuttle_reduction_pct", q.reduction_pct, "%"),
        metric("fidelity_gain_geomean", q.fidelity_gain, "x"),
        metric(
            "failed_share",
            ratio(report.failed as f64, report.attempted as f64),
            "ratio",
        ),
        metric("random_circuits_worse", worse_circuits as f64, "count"),
        metric(
            "wall_s.min",
            walls.iter().copied().fold(f64::INFINITY, f64::min),
            "s",
        ),
        metric("wall_s.max", walls.iter().copied().fold(0.0, f64::max), "s"),
        metric("passes", walls.len() as f64, "count"),
        metric("compiles", compiles.len() as f64, "count"),
    ];
    report
}

/// Output quality of the first pass, summed over the chosen results.
#[derive(Debug, Default)]
struct Quality {
    shuttles: f64,
    depth: f64,
    makespan_us: f64,
    log_fidelity: f64,
    /// Mean over circuits of chosen shuttles / paper-baseline shuttles.
    shuttle_ratio: f64,
    /// Mean over circuits of the %-reduction from baseline to chosen.
    reduction_pct: f64,
    /// Geometric mean over circuits of chosen / baseline program fidelity.
    fidelity_gain: f64,
}

impl Quality {
    /// Sums the chosen results and compares each circuit with the paper's
    /// baseline compiler: `paper125`'s own baseline compiles, or, on the
    /// grid workloads, one baseline compile per circuit made here, outside
    /// the timed region (its failures count in `report`).
    fn of(inputs: &Inputs, digests: &[Option<Digest>], report: &mut Report) -> Quality {
        let entries = inputs.workload.entries();
        let per = entries.len();
        let baseline = Entry::Compile(
            CompilerConfig::baseline().with_timing(entries[per - 1].config().timing),
        );
        let mut q = Quality::default();
        let mut compared = 0.0;
        for (ci, (_, circuit)) in inputs.circuits.iter().enumerate() {
            let Some(chosen) = digests[ci * per + per - 1] else {
                continue;
            };
            q.shuttles += chosen.shuttles as f64;
            q.depth += chosen.depth as f64;
            q.makespan_us += chosen.makespan_us;
            q.log_fidelity += chosen.log_fidelity;
            let base = if per > 1 {
                digests[ci * per]
            } else {
                report.attempted += 1;
                let base = run_entry(&baseline, circuit, inputs, &SimParams::default());
                report.failed += u64::from(base.is_err());
                base.ok().map(|b| b.digest())
            };
            let Some(base) = base else {
                continue;
            };
            let (b, c) = (base.shuttles as f64, chosen.shuttles as f64);
            q.shuttle_ratio += ratio(c, b);
            q.reduction_pct += 100.0 * ratio(b - c, b);
            q.fidelity_gain += chosen.log_fidelity - base.log_fidelity;
            compared += 1.0;
        }
        q.shuttle_ratio = ratio(q.shuttle_ratio, compared);
        q.reduction_pct = ratio(q.reduction_pct, compared);
        q.fidelity_gain = ratio(q.fidelity_gain, compared).exp();
        q
    }
}
