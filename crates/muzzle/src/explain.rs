//! The `explain` subcommand: why is this schedule exactly this long?
//!
//! Compiles one circuit through the selected stack (same knobs as
//! `compile`), then answers with schedule-level evidence instead of
//! aggregate counts: the critical path through the timeline (the chain of
//! events whose ends bound each other's starts, extracted by
//! [`qccd_timing::critical_path`]), the makespan decomposed by op kind
//! (gate / flight / split-merge / junction / zone-move / idle-wait,
//! summing back to the makespan **bit for bit** — the command hard-errors
//! if the identity does not hold), per-trap busy/idle reports with a text
//! utilization heatmap, per-edge contention, and optionally a per-trap
//! Gantt chart as Chrome trace-event JSON (`--gantt FILE`, one lane per
//! trap — open in about:tracing or ui.perfetto.dev).
//!
//! `--fidelity` adds the fidelity X-ray: the physics replay re-runs with
//! [`qccd_sim`]'s heat-provenance ledger attached, decomposing
//! `log_program_fidelity` into per-gate duration (`Γτ`) and motional
//! (`A(2n̄+1)`) loss terms that sum back to it **bit for bit** (the command
//! hard-errors otherwise), with worst-gate / hottest-trap /
//! costliest-shuttle rankings and, under `--gantt`, per-trap `n̄(t)`
//! counter rows in the exported trace.

use crate::{emit, parse_common, CommonOptions};
use qccd_bench::report::{attribution_json, blame_counts_json, fidelity_json};
use qccd_circuit::Circuit;
use qccd_obs::json::Json;
use qccd_sim::{FidelityAttribution, LossTerm};
use qccd_timing::{
    attribute_path, critical_path, edge_reports, trap_reports, CriticalPath, EdgeReport, EventRef,
    MakespanAttribution, Timeline, TimingModel, TrapReport,
};

/// Width of the text heatmap bars, characters.
const HEATMAP_WIDTH: usize = 40;

/// Entry point for `muzzle explain`.
pub fn cmd_explain(args: &[String]) -> Result<(), String> {
    let opts = parse_common(
        args,
        &["--top", "--gantt"],
        &["--verbose", "--quiet", "--fidelity"],
    )?;
    crate::apply_verbosity(&opts);
    if opts.format == "csv" {
        return Err(
            "explain has no csv form (the report mixes an attribution table, \
             a path, and per-resource sections); use text or json"
                .to_owned(),
        );
    }
    let top: usize = match opts.extra_values.iter().find(|(k, _)| k == "--top") {
        Some((_, v)) => v
            .parse()
            .map_err(|_| format!("--top: `{v}` is not a valid number"))?,
        None => 5,
    };
    let gantt = opts
        .extra_values
        .iter()
        .find(|(k, _)| k == "--gantt")
        .map(|(_, v)| v.clone());

    let machine = opts.machine.build()?;
    let circuit = crate::require_circuit(&opts, machine.initial_capacity())?;
    let config = opts.config(&opts.policy, opts.proximity)?;
    let model = crate::parse_timing_model(&opts.timing);
    qccd_obs::info("explain", || {
        format!("compiling {} on {machine}...", circuit.name)
    });
    let (result, _pack, _clock, compile_s) = crate::timed(&circuit.circuit, &machine, &config)?;
    let timeline = &result.timeline;

    let (path, attribution) = attribute_makespan(timeline, &circuit.circuit, &model)?;
    let traps = trap_reports(timeline, machine.num_traps() as usize);
    let edges = edge_reports(timeline);

    // --fidelity: replay the schedule with the heat-provenance ledger
    // attached, then hold the attribution to the same standard as the
    // makespan table above: the terms must reproduce the simulator's
    // answer bit for bit or the report is not emitted.
    let fidelity = if opts.extra_flags.iter().any(|f| f == "--fidelity") {
        let attr = qccd_sim::attribute_fidelity_timed(
            &result.schedule,
            &result.transport,
            &circuit.circuit,
            &machine,
            &qccd_sim::SimParams::default(),
            &model,
        )
        .map_err(|e| e.to_string())?;
        check_fidelity(&attr)?;
        Some(attr)
    } else {
        None
    };

    if let Some(path_out) = &gantt {
        let counters = fidelity.as_ref().map(nbar_counters).unwrap_or_default();
        std::fs::write(path_out, gantt_trace(timeline, traps.len(), &counters))
            .map_err(|e| format!("cannot write `{path_out}`: {e}"))?;
    }

    let report = match opts.format.as_str() {
        "json" => render_json(
            &opts,
            &circuit.name,
            &machine.to_string(),
            &config.to_string(),
            timeline,
            compile_s,
            &path,
            &attribution,
            &traps,
            &edges,
            fidelity.as_ref(),
            top,
        ),
        _ => render_text(
            &opts,
            &circuit.name,
            &machine.to_string(),
            &config.to_string(),
            timeline,
            compile_s,
            &path,
            &attribution,
            &traps,
            &edges,
            fidelity.as_ref(),
            top,
        ),
    };
    emit(&report, &opts.out)
}

/// The critical path through `timeline` and its makespan attributed by
/// op kind, checked: the segments sum to the makespan bit for bit along a
/// contiguous path, which is empty only for an empty schedule. `muzzle
/// explain` and `muzzle snapshot` are built on these identities; a
/// violation means the extractor disagrees with the scheduler.
///
/// # Errors
///
/// Returns the violated identity.
pub fn attribute_makespan(
    timeline: &Timeline,
    circuit: &Circuit,
    model: &TimingModel,
) -> Result<(CriticalPath, MakespanAttribution), String> {
    let path = critical_path(timeline, circuit);
    let attribution = attribute_path(timeline, model, &path);
    if attribution.total_us().to_bits() != timeline.makespan_us.to_bits() {
        return Err(format!(
            "attribution identity violated: segments sum to {} but the \
             timeline's makespan is {} (this is a bug in the critical-path \
             extractor, not in your invocation)",
            attribution.total_us(),
            timeline.makespan_us
        ));
    }
    if !path.is_contiguous() || (path.steps.is_empty() && timeline.makespan_us > 0.0) {
        return Err(format!(
            "the critical path of {} steps is empty or not contiguous under a \
             {} us makespan (this is a bug in the critical-path extractor)",
            path.steps.len(),
            timeline.makespan_us
        ));
    }
    Ok((path, attribution))
}

/// The fidelity attribution's identities: the loss terms and heat ledger
/// reproduce `log_program_fidelity` bit for bit, the duration and motional
/// shares lie in `[0, 1]` and sum to at most 1, and a schedule that ran
/// any gate has a positive loss, a worst gate and a hottest trap.
///
/// # Errors
///
/// Returns the violated identity.
pub fn check_fidelity(attr: &FidelityAttribution) -> Result<(), String> {
    if !attr.identity_holds() {
        return Err(format!(
            "fidelity attribution identity violated: the loss terms do \
             not reproduce log_program_fidelity = {} bit for bit (this \
             is a bug in the attribution pass, not in your invocation)",
            attr.report.log_program_fidelity
        ));
    }
    let (duration, motional) = (attr.duration_share(), attr.motional_share());
    if !((0.0..=1.0).contains(&duration)
        && (0.0..=1.0).contains(&motional)
        && duration + motional <= 1.0 + 1e-12)
    {
        return Err(format!(
            "fidelity loss shares out of range (duration {duration}, motional {motional})"
        ));
    }
    let blamed = attr.total_loss() > 0.0
        && !attr.worst_gates(1).is_empty()
        && !attr.hottest_traps(1).is_empty();
    if attr.report.gates > 0 && !blamed {
        return Err(format!(
            "{} gates ran, but the fidelity attribution blames no loss, gate or trap",
            attr.report.gates
        ));
    }
    Ok(())
}

/// Traps/edges reordered busiest-first (stable on ties, so equal-busy
/// resources keep index order).
fn busiest<T: Copy>(items: &[T], busy: impl Fn(&T) -> f64) -> Vec<T> {
    let mut out = items.to_vec();
    out.sort_by(|a, b| busy(b).total_cmp(&busy(a)));
    out
}

fn heatmap_bar(utilization: f64) -> String {
    let filled = (utilization.clamp(0.0, 1.0) * HEATMAP_WIDTH as f64).round() as usize;
    let mut bar = "#".repeat(filled.min(HEATMAP_WIDTH));
    bar.push_str(&".".repeat(HEATMAP_WIDTH - filled.min(HEATMAP_WIDTH)));
    bar
}

/// Per-trap `n̄(t)` counter samples for the Gantt export: one sample per
/// ledger deposit, valued at the chain's cumulative fold — so the counter
/// track replays exactly the `n̄` the fidelity model charged.
fn nbar_counters(attr: &FidelityAttribution) -> Vec<qccd_obs::CounterSample> {
    let mut out = Vec::new();
    for (t, deposits) in attr.ledger.deposits.iter().enumerate() {
        let name = format!("nbar T{t}");
        out.push(qccd_obs::CounterSample {
            tid: t as u64,
            name: name.clone(),
            ts_us: 0.0,
            value: 0.0,
        });
        let mut acc = 0.0f64;
        for d in deposits {
            acc += d.net_quanta();
            out.push(qccd_obs::CounterSample {
                tid: t as u64,
                name: name.clone(),
                ts_us: d.t_us,
                value: acc,
            });
        }
    }
    out
}

/// One Gantt lane per trap: gates and zone moves on their trap's lane,
/// transport rounds on every involved trap's lane. `counters` (per-trap
/// `n̄(t)` under `--fidelity`, empty otherwise) ride along as counter rows.
fn gantt_trace(
    timeline: &Timeline,
    num_traps: usize,
    counters: &[qccd_obs::CounterSample],
) -> String {
    let lanes: Vec<(u64, String)> = (0..num_traps as u64)
        .map(|t| (t, format!("trap T{t}")))
        .collect();
    let mut spans = Vec::new();
    for event in timeline.iter() {
        match event {
            EventRef::Gate { gate, trap, .. } => spans.push(qccd_obs::LaneSpan {
                tid: trap.index() as u64,
                name: format!("gate {gate}"),
                start_us: event.start_us(),
                end_us: event.end_us(),
            }),
            EventRef::ZoneMove { ion, trap, .. } => spans.push(qccd_obs::LaneSpan {
                tid: trap.index() as u64,
                name: format!("zone-move {ion}"),
                start_us: event.start_us(),
                end_us: event.end_us(),
            }),
            EventRef::TransportRound {
                moves, involved, ..
            } => {
                for trap in involved {
                    spans.push(qccd_obs::LaneSpan {
                        tid: trap.index() as u64,
                        name: format!("transport ({} hops)", moves.len()),
                        start_us: event.start_us(),
                        end_us: event.end_us(),
                    });
                }
            }
        }
    }
    qccd_obs::chrome_trace_lanes_with_counters(&lanes, &spans, counters)
}

#[allow(clippy::too_many_arguments)] // report renderer: one arg per section
fn render_text(
    opts: &CommonOptions,
    circuit: &str,
    machine: &str,
    config: &str,
    timeline: &Timeline,
    compile_s: f64,
    path: &CriticalPath,
    attribution: &MakespanAttribution,
    traps: &[TrapReport],
    edges: &[EdgeReport],
    fidelity: Option<&FidelityAttribution>,
    top: usize,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# muzzle explain — {circuit} on {machine} (timing {}, router {})\n\n",
        opts.timing, opts.router
    ));
    out.push_str(&format!("config   {config}\n"));
    out.push_str(&format!(
        "timeline {:.1} us makespan, {} events, compiled in {:.3} s\n\n",
        timeline.makespan_us,
        timeline.events.len(),
        compile_s
    ));

    out.push_str(&format!(
        "makespan attribution (critical path of {} steps):\n",
        path.steps.len()
    ));
    for (label, us) in attribution.segments() {
        let share = if attribution.makespan_us > 0.0 {
            100.0 * us / attribution.makespan_us
        } else {
            0.0
        };
        out.push_str(&format!("  {label:<12} {us:>14.3} us  {share:>5.1}%\n"));
    }
    out.push_str(&format!(
        "  {:<12} {:>14.3} us  (= makespan, bit for bit)\n\n",
        "total",
        attribution.total_us()
    ));

    out.push_str("critical-path blame (what bound each step's start):\n ");
    for (blame, count) in path.blame_counts() {
        out.push_str(&format!(" {}: {count}", blame.label()));
    }
    out.push_str("\n\n");

    let hot_traps = busiest(traps, |t| t.busy_us);
    out.push_str(&format!("top {top} busiest traps:\n"));
    for t in hot_traps.iter().take(top) {
        out.push_str(&format!(
            "  {:<4} busy {:>12.1} us  util {:>5.1}%  events {:>5}  idle gaps {:>3}  longest idle {:>10.1} us\n",
            t.trap.to_string(),
            t.busy_us,
            100.0 * t.utilization,
            t.events,
            t.idle_intervals,
            t.longest_idle_us
        ));
    }
    let hot_edges = busiest(edges, |e| e.busy_us);
    out.push_str(&format!("\ntop {top} busiest edges:\n"));
    if hot_edges.is_empty() {
        out.push_str("  (no transport rounds — every gate was local)\n");
    }
    for e in hot_edges.iter().take(top) {
        out.push_str(&format!(
            "  {:<9} busy {:>12.1} us  util {:>5.1}%  rounds {:>5}\n",
            format!("{}-{}", e.a, e.b),
            e.busy_us,
            100.0 * e.utilization,
            e.rounds
        ));
    }

    out.push_str("\nutilization heatmap (busy share of the makespan per trap):\n");
    for t in traps {
        out.push_str(&format!(
            "  {:<4} |{}| {:>5.1}%\n",
            t.trap.to_string(),
            heatmap_bar(t.utilization),
            100.0 * t.utilization
        ));
    }
    if let Some(attr) = fidelity {
        out.push_str(&render_fidelity_text(attr, top));
    }
    out
}

/// The `--fidelity` text section: loss decomposition plus the three
/// blame rankings.
fn render_fidelity_text(attr: &FidelityAttribution, top: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "\nfidelity attribution (log loss -ln F = {:.6e}, identity holds bit for bit):\n",
        attr.total_loss()
    ));
    let total = attr.gate_duration_loss + attr.gate_motional_loss + attr.shuttle_pulse_loss;
    let share = |loss: f64| {
        if total > 0.0 {
            100.0 * loss / total
        } else {
            0.0
        }
    };
    out.push_str(&format!(
        "  {:<22} {:>14.6e}  {:>5.1}%\n",
        "duration (Gamma*tau)",
        attr.gate_duration_loss,
        share(attr.gate_duration_loss)
    ));
    out.push_str(&format!(
        "  {:<22} {:>14.6e}  {:>5.1}%\n",
        "motional A(2n+1)",
        attr.gate_motional_loss,
        share(attr.gate_motional_loss)
    ));
    out.push_str(&format!(
        "    {:<20} {:>14.6e}\n",
        "zero-point (A)", attr.gate_zero_point_loss
    ));
    out.push_str(&format!(
        "    {:<20} {:>14.6e}\n",
        "heat (2An)", attr.gate_heat_loss
    ));
    out.push_str(&format!(
        "  {:<22} {:>14.6e}  {:>5.1}%\n",
        "shuttle pulses",
        attr.shuttle_pulse_loss,
        share(attr.shuttle_pulse_loss)
    ));
    if attr.saturated_gates > 0 {
        out.push_str(&format!(
            "  {} gate(s) saturated at fidelity 0 — program fidelity is exactly 0\n",
            attr.saturated_gates
        ));
    }

    out.push_str(&format!("\ntop {top} worst gates by log loss:\n"));
    for term in attr.worst_gates(top) {
        if let LossTerm::Gate {
            gate,
            trap,
            chain_len,
            tau_us,
            n_bar,
            log_loss,
            duration_loss,
            motional_loss,
            ..
        } = *term
        {
            out.push_str(&format!(
                "  {:<8} {:<4} loss {:>11.4e}  duration {:>11.4e}  motional {:>11.4e}  n {:>8.3}  chain {:>2}  tau {:>7.1} us\n",
                gate.to_string(),
                trap.to_string(),
                log_loss,
                duration_loss,
                motional_loss,
                n_bar,
                chain_len,
                tau_us
            ));
        }
    }

    out.push_str(&format!("\ntop {top} hottest traps by blamed heat loss:\n"));
    for (trap, blamed, gross) in attr.hottest_traps(top) {
        out.push_str(&format!(
            "  T{trap:<3} blamed loss {blamed:>11.4e}  gross heat {gross:>9.3} quanta\n"
        ));
    }

    out.push_str(&format!("\ntop {top} costliest shuttles:\n"));
    let hops = attr.costliest_shuttles(top);
    if hops.is_empty() {
        out.push_str("  (no shuttle hops — every gate was local)\n");
    }
    for h in hops {
        out.push_str(&format!(
            "  hop {:<4} {:<5} {}->{}  total {:>11.4e}  (pulse {:>11.4e} + heat {:>11.4e})\n",
            h.shuttle,
            h.ion.to_string(),
            h.from,
            h.to,
            h.total_log_loss(),
            h.pulse_log_loss,
            h.heat_log_loss
        ));
    }
    out
}

#[allow(clippy::too_many_arguments)] // report renderer: one arg per section
fn render_json(
    opts: &CommonOptions,
    circuit: &str,
    machine: &str,
    config: &str,
    timeline: &Timeline,
    compile_s: f64,
    path: &CriticalPath,
    attribution: &MakespanAttribution,
    traps: &[TrapReport],
    edges: &[EdgeReport],
    fidelity: Option<&FidelityAttribution>,
    top: usize,
) -> String {
    let steps = path
        .steps
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("event", Json::int(s.event)),
                ("start_us", Json::Num(s.start_us)),
                ("end_us", Json::Num(s.end_us)),
                ("blame", Json::str(s.blame.label())),
                (
                    "bound_by",
                    match s.bound_by {
                        Some(e) => Json::int(e),
                        None => Json::Null,
                    },
                ),
            ])
        })
        .collect();
    let value = Json::obj(vec![
        ("circuit", Json::str(circuit)),
        ("machine", Json::str(machine)),
        ("policy", Json::str(&opts.policy)),
        ("config", Json::str(config)),
        ("timing", Json::str(&opts.timing)),
        ("router", Json::str(&opts.router)),
        ("makespan_us", Json::Num(timeline.makespan_us)),
        ("events", Json::int(timeline.events.len())),
        ("compile_seconds", Json::Num(compile_s)),
        ("attribution", attribution_json(attribution)),
        (
            "critical_path",
            Json::obj(vec![
                ("steps", Json::int(path.steps.len())),
                ("contiguous", Json::Bool(path.is_contiguous())),
                ("blame_counts", blame_counts_json(path)),
                ("path", Json::Arr(steps)),
            ]),
        ),
        (
            "traps",
            Json::Arr(
                busiest(traps, |t| t.busy_us)
                    .iter()
                    .map(|t| {
                        Json::obj(vec![
                            ("trap", Json::int(t.trap.index())),
                            ("busy_us", Json::Num(t.busy_us)),
                            ("utilization", Json::Num(t.utilization)),
                            ("events", Json::int(t.events)),
                            ("idle_intervals", Json::int(t.idle_intervals)),
                            ("longest_idle_us", Json::Num(t.longest_idle_us)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "edges",
            Json::Arr(
                busiest(edges, |e| e.busy_us)
                    .iter()
                    .map(|e| {
                        Json::obj(vec![
                            ("a", Json::int(e.a.index())),
                            ("b", Json::int(e.b.index())),
                            ("busy_us", Json::Num(e.busy_us)),
                            ("utilization", Json::Num(e.utilization)),
                            ("rounds", Json::int(e.rounds)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let value = match fidelity {
        Some(attr) => value.with_field("fidelity", fidelity_json(attr, top)),
        None => value,
    };
    let mut text = value.to_string();
    text.push('\n');
    text
}
