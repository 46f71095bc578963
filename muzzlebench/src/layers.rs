//! The traced run: per-layer metrics. Each cycle runs one untraced pass
//! and one pass with `qccd_obs` recording (its spans, counters and
//! histograms are harvested), then times each layer's public function from
//! outside, with recording off, on the compile's own output.

use crate::checks::{check_pass, diverged, failures, validate_timed, Checked};
use crate::fits;
use crate::pass::{run_entry, Digest, Output};
use crate::report::{median, metric, ratio, Metric, Report};
use crate::workload::{prefix, Inputs, Workload};
use qccd_core::{compile, CompileResult, CompilerConfig, RouterPolicy};
use qccd_pack::{pack, validate_equivalent, PackConfig};
use qccd_route::TransportSchedule;
use qccd_sim::SimParams;
use std::hint::black_box;
use std::time::Instant;

/// Seconds `f` took, and its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = black_box(f());
    (out, t.elapsed().as_secs_f64())
}

/// Layer times summed over one cycle's plain `compile` calls.
#[derive(Debug, Default)]
struct Parts {
    compile_s: f64,
    half_compile_s: f64,
    dag_s: f64,
    schedule_validate_s: f64,
    transport_pack_s: f64,
    transport_validate_s: f64,
    /// The part of `transport_validate_s` that `compile` itself runs
    /// (strict validation; lookahead compiles skip it).
    validate_in_compile_s: f64,
    lower_s: f64,
    pack_s: f64,
    validate_equivalent_s: f64,
    sim_s: f64,
    failed: u64,
    attempted: u64,
}

impl Parts {
    /// Times what `compile` does around its loop on its own output `r`:
    /// the DAG build, schedule validation, transport packing and
    /// validation, and lowering. `checked` carries validator times already
    /// measured by the output checks.
    fn add_compile(
        &mut self,
        inputs: &Inputs,
        circuit: usize,
        config: &CompilerConfig,
        r: &CompileResult,
        compile_s: f64,
        checked: Option<&Checked>,
    ) {
        let (circuit, spec) = (&inputs.circuits[circuit].1, &inputs.spec);
        self.compile_s += compile_s;
        self.dag_s += timed(|| {
            let dag = circuit.dependency_dag();
            let ready = dag.ready_set();
            (dag.topological_order(), ready)
        })
        .1;
        let relaxed = config.lookahead && config.router.is_congestion();
        let own;
        let c = match checked {
            Some(c) => c,
            None => {
                own = validate_timed(circuit, spec, r, relaxed);
                self.failed += u64::from(own.failure.is_some());
                &own
            }
        };
        self.schedule_validate_s += c.schedule_validate_s;
        self.transport_validate_s += c.transport_validate_s;
        if !relaxed {
            self.validate_in_compile_s += c.transport_validate_s;
        }
        self.transport_pack_s += timed(|| match config.router {
            RouterPolicy::Serial => Ok(TransportSchedule::pack_serial(&r.schedule)),
            _ if config.lookahead => TransportSchedule::pack_lookahead(&r.schedule, spec),
            _ => TransportSchedule::pack_concurrent(&r.schedule, spec),
        })
        .1;
        let (lowered, lower_s) = timed(|| {
            qccd_timing::lower(
                &r.schedule,
                Some(&r.transport),
                circuit,
                spec,
                &config.timing,
            )
        });
        self.lower_s += lower_s;
        self.failed += u64::from(lowered.is_err());
    }

    /// Compiles from outside, recording a compile error as a failure.
    fn compile(
        &mut self,
        circuit: &qccd_circuit::Circuit,
        inputs: &Inputs,
        config: &CompilerConfig,
    ) -> Option<(CompileResult, f64)> {
        self.attempted += 1;
        let (r, s) = timed(|| compile(circuit, &inputs.spec, config));
        match r {
            Ok(r) => Some((r, s)),
            Err(_) => {
                self.failed += 1;
                None
            }
        }
    }

    /// `core.compile_s` minus the parts `compile` runs around its loop.
    fn loop_s(&self) -> f64 {
        self.compile_s
            - self.dag_s
            - self.schedule_validate_s
            - self.transport_pack_s
            - self.validate_in_compile_s
            - self.lower_s
    }
}

/// Times every layer from outside on one cycle's untraced pass.
fn time_layers(inputs: &Inputs, outputs: &[Result<Output, String>], checked: &[Checked]) -> Parts {
    let mut parts = Parts::default();
    let configs = inputs.workload.plain_configs();
    for out in outputs.iter().flatten() {
        parts.sim_s += out.sim_s;
    }
    for (ci, (_, circuit)) in inputs.circuits.iter().enumerate() {
        for (j, config) in configs.iter().enumerate() {
            if inputs.workload == Workload::GridClock {
                // The arms `compile_clock` races, each compiled and packed
                // from outside, one after the other.
                let Some((r, s)) = parts.compile(circuit, inputs, config) else {
                    continue;
                };
                parts.add_compile(inputs, ci, config, &r, s, None);
                let pack_config = PackConfig::for_model(config.timing).with_jobs(config.jobs);
                let (packed, pack_s) = timed(|| pack(&r, circuit, &inputs.spec, &pack_config));
                parts.pack_s += pack_s;
                parts.attempted += 1;
                match packed {
                    Ok(p) => {
                        let (eq, s) = timed(|| {
                            validate_equivalent(&r.schedule, &p.schedule, circuit, &inputs.spec)
                        });
                        parts.validate_equivalent_s += s;
                        parts.failed += u64::from(eq.is_err());
                    }
                    Err(_) => parts.failed += 1,
                }
            } else {
                let slot = ci * configs.len() + j;
                if let Ok(out) = &outputs[slot] {
                    parts.add_compile(
                        inputs,
                        ci,
                        config,
                        &out.result,
                        out.compile_s,
                        Some(&checked[slot]),
                    );
                }
            }
        }
        // `core.doubling_ratio`: the same compiles on the circuit's first
        // half.
        let half = prefix(circuit, circuit.len() / 2);
        for config in &configs {
            if let Some((_, s)) = parts.compile(&half, inputs, config) {
                parts.half_compile_s += s;
            }
        }
    }
    parts
}

/// What the recording pass left in `qccd_obs`.
struct Harvest {
    phases: Vec<qccd_obs::PhaseStat>,
}

impl Harvest {
    fn self_s(&self, span: &str) -> f64 {
        self.phases
            .iter()
            .find(|p| p.name == span)
            .map_or(0.0, |p| p.self_us / 1e6)
    }

    fn total_s(&self, span: &str) -> f64 {
        self.phases
            .iter()
            .find(|p| p.name == span)
            .map_or(0.0, |p| p.total_us / 1e6)
    }
}

fn count(name: &str) -> f64 {
    qccd_obs::counter_value(name) as f64
}

/// One cycle's per-layer metrics, in `BENCHMARK.json` order.
fn cycle_metrics(parts: &Parts, h: &Harvest, plain_wall_s: f64, traced_wall_s: f64) -> Vec<Metric> {
    let round_width = qccd_obs::histograms()
        .into_iter()
        .find(|s| s.name == "route.round_width")
        .map_or(0.0, |s| s.mean());
    let c = count;
    vec![
        metric("route.validate_s", parts.transport_validate_s, "s"),
        metric("route.pack_s", parts.transport_pack_s, "s"),
        metric(
            "route.backfill_attempts",
            c("route.backfill_attempts"),
            "count",
        ),
        metric(
            "route.backfill_accepts",
            c("route.backfill_accepts"),
            "count",
        ),
        metric("route.backfill_hoists", c("route.backfill_hoists"), "count"),
        metric(
            "route.backfill_accept_ratio",
            ratio(c("route.backfill_accepts"), c("route.backfill_attempts")),
            "ratio",
        ),
        metric("route.round_width.mean", round_width, "hops"),
        metric("core.compile_s", parts.compile_s, "s"),
        metric("core.loop_s", parts.loop_s(), "s"),
        metric(
            "core.direction-scan.self_s",
            h.self_s("direction-scan"),
            "s",
        ),
        metric("core.rebalance.self_s", h.self_s("rebalance"), "s"),
        metric("core.batching.self_s", h.self_s("batching"), "s"),
        metric("core.scoring.self_s", h.self_s("scoring"), "s"),
        metric(
            "core.candidates_scored",
            c("core.candidates_scored"),
            "count",
        ),
        metric("core.clock_ties", c("core.clock_ties"), "count"),
        metric(
            "core.doubling_ratio",
            ratio(parts.compile_s, parts.half_compile_s),
            "ratio",
        ),
        metric("flow.self_s", h.self_s("flow"), "s"),
        metric("flow.solves", c("flow.solves"), "count"),
        metric("flow.augmenting_paths", c("flow.augmenting_paths"), "count"),
        metric(
            "flow.commodities_routed",
            c("flow.commodities_routed"),
            "count",
        ),
        metric(
            "flow.commodity_fallbacks",
            c("flow.commodity_fallbacks"),
            "count",
        ),
        metric(
            "flow.fallback_ratio",
            ratio(c("flow.commodity_fallbacks"), c("flow.commodities_routed")),
            "ratio",
        ),
        metric("timing.lower_s", parts.lower_s, "s"),
        metric("timing.delta_hits", c("timing.delta_hits"), "count"),
        metric("timing.delta_applies", c("timing.delta_applies"), "count"),
        metric("timing.delta_undos", c("timing.delta_undos"), "count"),
        metric(
            "timing.clone_fallbacks",
            c("timing.clone_fallbacks"),
            "count",
        ),
        metric(
            "timing.delta_hit_ratio",
            ratio(
                c("timing.delta_hits"),
                c("timing.delta_hits") + c("timing.clone_fallbacks"),
            ),
            "ratio",
        ),
        metric("pool.tasks", c("pool.tasks"), "count"),
        metric("pool.seq_fallbacks", c("pool.seq_fallbacks"), "count"),
        metric("pack.pack_s", parts.pack_s, "s"),
        metric(
            "pack.validate_equivalent_s",
            parts.validate_equivalent_s,
            "s",
        ),
        metric("pack.self_s", h.self_s("pack"), "s"),
        metric("backfill.self_s", h.self_s("backfill"), "s"),
        metric("pack.candidates_tried", c("pack.candidates_tried"), "count"),
        metric(
            "pack.candidates_adopted",
            c("pack.candidates_adopted"),
            "count",
        ),
        metric(
            "pack.adopt_ratio",
            ratio(c("pack.candidates_adopted"), c("pack.candidates_tried")),
            "ratio",
        ),
        metric("sim.simulate_s", parts.sim_s, "s"),
        metric("circuit.dag_s", parts.dag_s, "s"),
        metric("machine.validate_s", parts.schedule_validate_s, "s"),
        metric(
            "obs.unattributed_share",
            ratio(h.self_s("compile"), h.total_s("compile")),
            "ratio",
        ),
        metric(
            "obs.overhead_ratio",
            ratio(traced_wall_s, plain_wall_s),
            "ratio",
        ),
    ]
}

/// One cycle's untraced and traced passes.
#[derive(Default)]
struct Paired {
    /// The untraced outputs.
    plain: Vec<Result<Output, String>>,
    /// The traced outputs' digests.
    traced: Vec<Option<Digest>>,
    plain_s: f64,
    traced_s: f64,
}

/// Runs the untraced and the traced pass interleaved call by call, the
/// order alternating, so that both see the same host conditions.
/// Telemetry records only during the traced calls.
fn paired_passes(inputs: &Inputs) -> Paired {
    let entries = inputs.workload.entries();
    let params = SimParams::default();
    let mut p = Paired::default();
    qccd_obs::reset();
    for (_, circuit) in &inputs.circuits {
        for entry in &entries {
            let traced_first = p.plain.len() % 2 == 1;
            for trace in [traced_first, !traced_first] {
                if trace {
                    qccd_obs::enable();
                }
                let (out, s) = timed(|| run_entry(entry, circuit, inputs, &params));
                qccd_obs::disable();
                if trace {
                    p.traced_s += s;
                    p.traced.push(out.ok().map(|o| o.digest()));
                } else {
                    p.plain_s += s;
                    p.plain.push(out);
                }
            }
        }
    }
    p
}

/// Runs traced cycles while another fits in `seconds` (at least one) and
/// reports each per-layer metric's median over the cycles. Counters are
/// process-global, so on `grid_clock` the two racing arms' counts sum.
pub fn traced_run(inputs: &Inputs, seconds: f64) -> Report {
    let start = Instant::now();
    let mut report = Report::default();
    let mut first: Option<Vec<Option<Digest>>> = None;
    let mut cycles: Vec<Vec<Metric>> = Vec::new();
    let mut last = 0.0;
    while cycles.is_empty() || fits(start, last, seconds) {
        let round = Instant::now();
        let p = paired_passes(inputs);
        let harvest = Harvest {
            phases: qccd_obs::phase_stats(),
        };
        let (checked, digests) = check_pass(inputs, &p.plain);
        report.attempted += 2 * digests.len() as u64;
        report.failed += failures(&digests) + diverged(&digests, &p.traced);
        match &first {
            Some(first) => report.failed += diverged(first, &digests),
            None => first = Some(digests),
        }
        let parts = time_layers(inputs, &p.plain, &checked);
        report.attempted += parts.attempted;
        report.failed += parts.failed;
        cycles.push(cycle_metrics(&parts, &harvest, p.plain_s, p.traced_s));
        last = round.elapsed().as_secs_f64();
    }
    report.metrics = cycles[0]
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = cycles.iter().map(|c| c[i].value).collect();
            metric(m.name, median(&values), m.unit)
        })
        .collect();
    report
}
