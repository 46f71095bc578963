//! Schedule-level explanation: critical-path extraction, per-event blame,
//! exact makespan attribution, and per-trap/per-edge utilization reports
//! over a lowered [`Timeline`].
//!
//! The ASAP scheduler ([`lower`](crate::lower)) starts every event at the
//! maximum of its resource frontiers — per-trap clocks and per-ion
//! availabilities — and every frontier value is itself some earlier
//! event's end time (or 0 at the origin). The frontier that *attains* the
//! maximum therefore ends bit-for-bit where the bound event starts:
//! following the binding frontier backwards from the event that ends at
//! `makespan_us` yields a contiguous chain of events covering
//! `[0, makespan_us]` with no gaps. That chain is the schedule's critical
//! path, and each step carries a [`Blame`] naming the resource class that
//! bound its start.
//!
//! [`critical_path`] reconstructs the chain by replaying the scheduler's
//! fold over the recorded events (same candidate order, same
//! keep-the-accumulator-on-ties `f64::max` semantics), so it needs no
//! timing model — only the circuit, to resolve gate operands.
//! [`attribute_makespan`] then decomposes the chain by op kind — gate /
//! flight / split-merge / junction / zone-move / idle-wait — such that the
//! six segments, summed in the fixed order of
//! [`MakespanAttribution::total_us`], equal `makespan_us` **bit-for-bit**:
//! idle-wait is constructed as the exact remainder `makespan − partial`,
//! and since the chain covers the makespan the partial sum is within a
//! factor two of the makespan, so the subtraction is exact (Sterbenz) and
//! adding it back reproduces `makespan_us` exactly.

use crate::model::TimingModel;
use crate::timeline::{EventRef, Timeline, TimelineEvent};
use qccd_circuit::Circuit;
use qccd_machine::TrapId;

/// The resource class that bound an event's start, classified by the kind
/// of the earlier event that last released the binding resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Blame {
    /// The event starts at t = 0: no earlier event bound it.
    Start,
    /// Bound by a resource last released by a gate — the trap was busy
    /// gating, or an operand ion was still held in a gate chain.
    TrapBusy,
    /// Bound by an ion still in flight from an earlier transport round.
    IonInFlight,
    /// Bound by a trap an earlier transport round was still occupying as
    /// an endpoint (rounds contending for shared segments/endpoints).
    EdgeContention,
    /// Bound by an intra-trap zone reorder.
    ZoneReorder,
}

impl Blame {
    /// All blame kinds, in reporting order.
    pub const ALL: [Blame; 5] = [
        Blame::Start,
        Blame::TrapBusy,
        Blame::IonInFlight,
        Blame::EdgeContention,
        Blame::ZoneReorder,
    ];

    /// Stable kebab-case label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Blame::Start => "start",
            Blame::TrapBusy => "trap-busy",
            Blame::IonInFlight => "ion-in-flight",
            Blame::EdgeContention => "edge-contention",
            Blame::ZoneReorder => "zone-reorder",
        }
    }
}

/// One event on the critical path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CriticalPathStep {
    /// Index into [`Timeline::events`].
    pub event: usize,
    /// Event start, µs — bit-for-bit the previous step's `end_us`.
    pub start_us: f64,
    /// Event end, µs.
    pub end_us: f64,
    /// The resource class that bound this start.
    pub blame: Blame,
    /// Index of the event whose end bound this start (`None` at t = 0).
    pub bound_by: Option<usize>,
}

/// The contiguous chain of events that determines the makespan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CriticalPath {
    /// Steps in time order; empty iff the timeline has no events.
    pub steps: Vec<CriticalPathStep>,
}

impl CriticalPath {
    /// Step count per blame kind, in [`Blame::ALL`] order.
    pub fn blame_counts(&self) -> [(Blame, usize); 5] {
        let mut out = Blame::ALL.map(|b| (b, 0usize));
        for step in &self.steps {
            for slot in &mut out {
                if slot.0 == step.blame {
                    slot.1 += 1;
                }
            }
        }
        out
    }

    /// True when consecutive steps touch bit-for-bit, the chain starts at
    /// t = 0, and it ends at the latest event end — the contiguity
    /// invariant the extractor guarantees for scheduler-produced
    /// timelines.
    pub fn is_contiguous(&self) -> bool {
        self.steps
            .first()
            .is_none_or(|first| first.start_us == 0.0 && first.blame == Blame::Start)
            && self.steps.windows(2).all(|w| w[0].end_us == w[1].start_us)
    }
}

/// Makespan decomposed by op kind along the critical path, µs.
///
/// The invariant: [`total_us`](MakespanAttribution::total_us) — the six
/// segments summed in fixed order — equals `makespan_us` bit-for-bit.
/// `idle_wait_us` is the exact remainder of the makespan the chain's op
/// durations do not explain; for scheduler-produced timelines the chain
/// is gap-free, so it is zero up to the (exact-by-Sterbenz) residual.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MakespanAttribution {
    /// Gate execution on the critical path.
    pub gate_us: f64,
    /// Straight-segment transport (hop time net of split/merge/junction).
    pub flight_us: f64,
    /// SPLIT + MERGE quanta bracketing critical-path hops.
    pub split_merge_us: f64,
    /// Junction corner/swap cost on critical-path hops.
    pub junction_us: f64,
    /// Intra-trap zone reorders.
    pub zone_move_us: f64,
    /// Makespan not covered by the above: `makespan_us` minus the other
    /// five segments, in [`total_us`](MakespanAttribution::total_us)
    /// summation order — exact by construction.
    pub idle_wait_us: f64,
    /// The timeline's recorded makespan, µs.
    pub makespan_us: f64,
}

impl MakespanAttribution {
    /// Sum of the six segments in fixed order; equals
    /// [`makespan_us`](MakespanAttribution::makespan_us) bit-for-bit.
    pub fn total_us(&self) -> f64 {
        self.gate_us
            + self.flight_us
            + self.split_merge_us
            + self.junction_us
            + self.zone_move_us
            + self.idle_wait_us
    }

    /// `(label, µs)` rows in fixed reporting order.
    pub fn segments(&self) -> [(&'static str, f64); 6] {
        [
            ("gate", self.gate_us),
            ("flight", self.flight_us),
            ("split-merge", self.split_merge_us),
            ("junction", self.junction_us),
            ("zone-move", self.zone_move_us),
            ("idle-wait", self.idle_wait_us),
        ]
    }
}

/// Which frontier kind a candidate came from (the scheduler folds trap
/// clocks and ion availabilities; the argmax decides the blame).
#[derive(Clone, Copy)]
enum Resource {
    Trap,
    Ion,
}

/// A resource frontier: the time it frees up and the event that set it.
#[derive(Clone, Copy)]
struct Frontier {
    end_us: f64,
    setter: Option<usize>,
}

const FREE: Frontier = Frontier {
    end_us: 0.0,
    setter: None,
};

/// Running argmax over fold candidates. Mirrors `f64::max` fold order:
/// only a *strictly* later frontier replaces the accumulator, so ties
/// keep the earliest candidate exactly like the scheduler's fold.
struct Binder {
    value: f64,
    resource: Resource,
    setter: Option<usize>,
}

impl Binder {
    fn new(resource: Resource, frontier: Frontier) -> Binder {
        Binder {
            value: frontier.end_us,
            resource,
            setter: frontier.setter,
        }
    }

    fn challenge(&mut self, resource: Resource, frontier: Frontier) {
        if frontier.end_us > self.value {
            self.value = frontier.end_us;
            self.resource = resource;
            self.setter = frontier.setter;
        }
    }

    fn classify(&self, timeline: &Timeline) -> (Blame, Option<usize>) {
        match self.setter {
            None => (Blame::Start, None),
            Some(i) => {
                let blame = match (&timeline.events[i], self.resource) {
                    (TimelineEvent::Gate { .. }, _) => Blame::TrapBusy,
                    (TimelineEvent::ZoneMove { .. }, _) => Blame::ZoneReorder,
                    (TimelineEvent::TransportRound { .. }, Resource::Ion) => Blame::IonInFlight,
                    (TimelineEvent::TransportRound { .. }, Resource::Trap) => Blame::EdgeContention,
                };
                (blame, Some(i))
            }
        }
    }
}

/// Largest trap index + 1 and largest ion index + 1 any event references.
fn resource_bounds(timeline: &Timeline, circuit: &Circuit) -> (usize, usize) {
    let traps = timeline.trap_span(0);
    let moved = timeline
        .moves
        .iter()
        .fold(circuit.num_qubits() as usize, |acc, m| {
            acc.max(m.ion.index() + 1)
        });
    let ions = timeline.events.iter().fold(moved, |acc, e| match e {
        TimelineEvent::ZoneMove { ion, .. } => acc.max(ion.index() + 1),
        _ => acc,
    });
    (traps, ions)
}

/// Extracts the critical path of a lowered timeline by replaying the ASAP
/// fold over its recorded events: per-trap clocks and per-ion
/// availabilities track `(end time, setter event)`, each event's binding
/// frontier classifies its [`Blame`], and the chain is the backward walk
/// along binders from the last event ending at the latest end time.
///
/// The circuit resolves gate operands (the timeline records gate ids, not
/// qubits); it must be the circuit the timeline was lowered from.
pub fn critical_path(timeline: &Timeline, circuit: &Circuit) -> CriticalPath {
    if timeline.events.is_empty() {
        return CriticalPath::default();
    }
    let (num_traps, num_ions) = resource_bounds(timeline, circuit);
    let mut clock = vec![FREE; num_traps];
    let mut avail = vec![FREE; num_ions];
    let mut blames: Vec<(Blame, Option<usize>)> = Vec::with_capacity(timeline.events.len());
    for (idx, event) in timeline.iter().enumerate() {
        let done = Frontier {
            end_us: event.end_us(),
            setter: Some(idx),
        };
        match event {
            EventRef::Gate { gate, trap, .. } => {
                // Fold order: the trap clock seeds the fold, operand
                // availabilities challenge it (scheduler: `fold(clock[t], max)`).
                let t = trap.index();
                let mut binder = Binder::new(Resource::Trap, clock[t]);
                for q in circuit.gate(gate).qubits.iter() {
                    binder.challenge(Resource::Ion, avail[q.index()]);
                }
                blames.push(binder.classify(timeline));
                clock[t] = done;
                for q in circuit.gate(gate).qubits.iter() {
                    avail[q.index()] = done;
                }
            }
            EventRef::TransportRound {
                moves, involved, ..
            } => {
                // Fold order: member ion availabilities, then involved
                // trap clocks, seeded from 0 (scheduler: `fold(0.0, max)`).
                let mut binder = Binder::new(Resource::Ion, FREE);
                for m in moves {
                    binder.challenge(Resource::Ion, avail[m.ion.index()]);
                }
                for t in involved {
                    binder.challenge(Resource::Trap, clock[t.index()]);
                }
                blames.push(binder.classify(timeline));
                for m in moves {
                    avail[m.ion.index()] = done;
                }
                for t in involved {
                    clock[t.index()] = done;
                }
            }
            EventRef::ZoneMove { ion, trap, .. } => {
                let t = trap.index();
                let mut binder = Binder::new(Resource::Trap, clock[t]);
                binder.challenge(Resource::Ion, avail[ion.index()]);
                blames.push(binder.classify(timeline));
                clock[t] = done;
                avail[ion.index()] = done;
            }
        }
    }
    // Terminal: the last event ending at the latest end time. For
    // scheduler-produced timelines that end time *is* `makespan_us` (the
    // maximum trap clock); hand-built timelines may record a later
    // makespan — the gap surfaces as idle-wait in the attribution.
    let latest_end = timeline
        .events
        .iter()
        .map(TimelineEvent::end_us)
        .fold(f64::NEG_INFINITY, f64::max);
    let terminal = timeline
        .events
        .iter()
        .rposition(|e| e.end_us() == latest_end)
        .expect("non-empty timeline has a latest event");
    let mut steps = Vec::new();
    let mut cur = terminal;
    loop {
        let (blame, bound_by) = blames[cur];
        steps.push(CriticalPathStep {
            event: cur,
            start_us: timeline.events[cur].start_us(),
            end_us: timeline.events[cur].end_us(),
            blame,
            bound_by,
        });
        match bound_by {
            Some(prev) => cur = prev,
            None => break,
        }
    }
    steps.reverse();
    CriticalPath { steps }
}

/// Decomposes an already-extracted critical path by op kind. Transport
/// rounds split into split-merge / junction / flight using the model's
/// arithmetic for the slowest member hop (the hop that defined the round's
/// duration), with flight as the exact residual of the round duration so
/// per-round parts always sum back exactly.
pub fn attribute_path(
    timeline: &Timeline,
    model: &TimingModel,
    path: &CriticalPath,
) -> MakespanAttribution {
    let mut gate_us = 0.0f64;
    let mut flight_us = 0.0f64;
    let mut split_merge_us = 0.0f64;
    let mut junction_us = 0.0f64;
    let mut zone_move_us = 0.0f64;
    for step in &path.steps {
        let dur = step.end_us - step.start_us;
        let event = &timeline.events[step.event];
        match event {
            TimelineEvent::Gate { .. } => gate_us += dur,
            TimelineEvent::ZoneMove { .. } => zone_move_us += dur,
            TimelineEvent::TransportRound { .. } => {
                let moves = timeline.round_moves(event);
                // The round lasts its slowest member hop; mirror the
                // scheduler's fold (ties keep the earlier member).
                let mut junctions = 0u32;
                let mut slowest = f64::NEG_INFINITY;
                for m in moves {
                    let hop = model.hop_us(m.junctions);
                    if hop > slowest {
                        slowest = hop;
                        junctions = m.junctions;
                    }
                }
                if moves.is_empty() {
                    flight_us += dur;
                } else {
                    let sm = model.split_us + model.merge_us;
                    let jn = f64::from(junctions) * model.junction_cross_us;
                    split_merge_us += sm;
                    junction_us += jn;
                    flight_us += (dur - sm) - jn;
                }
            }
        }
    }
    // idle-wait is the exact remainder under the same left-to-right
    // summation order `total_us` uses, so the identity
    // `total_us() == makespan_us` holds bit-for-bit.
    let partial = gate_us + flight_us + split_merge_us + junction_us + zone_move_us;
    let idle_wait_us = timeline.makespan_us - partial;
    MakespanAttribution {
        gate_us,
        flight_us,
        split_merge_us,
        junction_us,
        zone_move_us,
        idle_wait_us,
        makespan_us: timeline.makespan_us,
    }
}

/// Extracts the critical path and decomposes the makespan in one call.
pub fn attribute_makespan(
    timeline: &Timeline,
    circuit: &Circuit,
    model: &TimingModel,
) -> MakespanAttribution {
    attribute_path(timeline, model, &critical_path(timeline, circuit))
}

/// Per-trap busy/idle report over a timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrapReport {
    /// The trap.
    pub trap: TrapId,
    /// Total busy time (gates + transport endpoints + zone moves), µs.
    pub busy_us: f64,
    /// Events touching the trap.
    pub events: usize,
    /// `busy_us / makespan_us` (0 when the makespan is 0).
    pub utilization: f64,
    /// Idle gaps between busy intervals within `[0, makespan_us]`,
    /// including a leading gap before the first event and a trailing gap
    /// after the last.
    pub idle_intervals: usize,
    /// The longest single idle gap, µs.
    pub longest_idle_us: f64,
}

/// Per-segment (shuttle-path edge) busy report over a timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeReport {
    /// First endpoint of the segment (canonical low trap).
    pub a: TrapId,
    /// Second endpoint of the segment.
    pub b: TrapId,
    /// Total time rounds occupy the segment, µs.
    pub busy_us: f64,
    /// Rounds that used the segment.
    pub rounds: usize,
    /// `busy_us / makespan_us` (0 when the makespan is 0).
    pub utilization: f64,
}

/// Builds per-trap utilization/idle reports in a single pass over the
/// events, covering `num_traps` traps (plus any higher trap index an
/// event references). Reports are ordered by trap index.
pub fn trap_reports(timeline: &Timeline, num_traps: usize) -> Vec<TrapReport> {
    let mut intervals: Vec<Vec<(f64, f64)>> = vec![Vec::new(); timeline.trap_span(num_traps)];
    for event in timeline.iter() {
        let window = (event.start_us(), event.end_us());
        match event {
            EventRef::Gate { trap, .. } | EventRef::ZoneMove { trap, .. } => {
                intervals[trap.index()].push(window);
            }
            EventRef::TransportRound { involved, .. } => {
                for t in involved {
                    intervals[t.index()].push(window);
                }
            }
        }
    }
    intervals
        .into_iter()
        .enumerate()
        .map(|(t, mut windows)| {
            windows.sort_by(|a, b| a.0.total_cmp(&b.0));
            let events = windows.len();
            let busy_us: f64 = windows.iter().map(|(s, e)| e - s).sum();
            let mut idle_intervals = 0usize;
            let mut longest_idle_us = 0.0f64;
            let mut frontier = 0.0f64;
            for &(start, end) in &windows {
                if start > frontier {
                    idle_intervals += 1;
                    longest_idle_us = longest_idle_us.max(start - frontier);
                }
                frontier = frontier.max(end);
            }
            if timeline.makespan_us > frontier {
                idle_intervals += 1;
                longest_idle_us = longest_idle_us.max(timeline.makespan_us - frontier);
            }
            let utilization = if timeline.makespan_us > 0.0 {
                busy_us / timeline.makespan_us
            } else {
                0.0
            };
            TrapReport {
                trap: TrapId(t as u32),
                busy_us,
                events,
                utilization,
                idle_intervals,
                longest_idle_us,
            }
        })
        .collect()
}

/// Builds per-segment busy reports in a single pass over the transport
/// rounds, ordered by canonical `(a, b)` endpoint pair.
pub fn edge_reports(timeline: &Timeline) -> Vec<EdgeReport> {
    let mut edges: Vec<((TrapId, TrapId), f64, usize)> = Vec::new();
    for event in timeline.iter() {
        if let EventRef::TransportRound { moves, .. } = event {
            let dur = event.end_us() - event.start_us();
            // One booking per distinct segment per round, matching the
            // validator's edge intervals.
            let mut seen: Vec<(TrapId, TrapId)> = Vec::new();
            for m in moves {
                let seg = m.segment();
                if seen.contains(&seg) {
                    continue;
                }
                seen.push(seg);
                match edges.iter_mut().find(|(e, _, _)| *e == seg) {
                    Some(slot) => {
                        slot.1 += dur;
                        slot.2 += 1;
                    }
                    None => edges.push((seg, dur, 1)),
                }
            }
        }
    }
    edges.sort_by_key(|((a, b), _, _)| (a.0, b.0));
    edges
        .into_iter()
        .map(|((a, b), busy_us, rounds)| EdgeReport {
            a,
            b,
            busy_us,
            rounds,
            utilization: if timeline.makespan_us > 0.0 {
                busy_us / timeline.makespan_us
            } else {
                0.0
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::lower;
    use qccd_circuit::{Circuit, GateId, Opcode, Qubit};
    use qccd_machine::{InitialMapping, IonId, MachineSpec, Operation, Schedule};

    fn sh(ion: u32, from: u32, to: u32) -> Operation {
        Operation::Shuttle {
            ion: IonId(ion),
            from: TrapId(from),
            to: TrapId(to),
        }
    }

    fn gate(gate: u32, trap: u32) -> Operation {
        Operation::Gate {
            gate: GateId(gate),
            trap: TrapId(trap),
        }
    }

    /// Two traps, three gates, one connecting shuttle: gate 2 waits for
    /// ion 1's hop, the hop waits for gate 0 to release ion 1.
    fn lowered(model: &TimingModel) -> (Timeline, Circuit) {
        let mut c = Circuit::new(4);
        c.push_two_qubit(Opcode::Ms, Qubit(0), Qubit(1)).unwrap();
        c.push_two_qubit(Opcode::Ms, Qubit(2), Qubit(3)).unwrap();
        c.push_two_qubit(Opcode::Ms, Qubit(1), Qubit(2)).unwrap();
        let spec = MachineSpec::linear(2, 4, 1).unwrap();
        let mapping =
            InitialMapping::from_traps(&spec, vec![TrapId(0), TrapId(0), TrapId(1), TrapId(1)])
                .unwrap();
        let schedule = Schedule::new(
            mapping,
            vec![gate(0, 0), gate(1, 1), sh(1, 0, 1), gate(2, 1)],
        );
        let timeline = lower(&schedule, None, &c, &spec, model).unwrap();
        (timeline, c)
    }

    #[test]
    fn chain_is_contiguous_and_spans_makespan() {
        for model in [TimingModel::ideal(), TimingModel::realistic()] {
            let (timeline, circuit) = lowered(&model);
            let path = critical_path(&timeline, &circuit);
            assert!(!path.steps.is_empty());
            assert!(path.is_contiguous());
            assert_eq!(path.steps[0].start_us, 0.0);
            assert_eq!(path.steps.last().unwrap().end_us, timeline.makespan_us);
        }
    }

    #[test]
    fn attribution_sums_bit_for_bit_to_makespan() {
        for model in [TimingModel::ideal(), TimingModel::realistic()] {
            let (timeline, circuit) = lowered(&model);
            let attribution = attribute_makespan(&timeline, &circuit, &model);
            assert_eq!(attribution.total_us(), timeline.makespan_us);
            assert!(attribution.gate_us > 0.0);
            assert!(attribution.flight_us > 0.0);
            assert!(attribution.split_merge_us > 0.0);
        }
    }

    #[test]
    fn blames_cover_gates_and_flight() {
        let (timeline, circuit) = lowered(&TimingModel::realistic());
        let path = critical_path(&timeline, &circuit);
        let counts = path.blame_counts();
        assert_eq!(counts[0], (Blame::Start, 1));
        let total: usize = counts.iter().map(|(_, n)| n).sum();
        assert_eq!(total, path.steps.len());
        // The chain is gate 0 → hop → gate 2: the hop waits on ion 1 held
        // by gate 0 (trap-busy), and gate 2 waits on trap 1 still occupied
        // by the round (edge-contention).
        assert!(counts[1].1 > 0, "no trap-busy steps");
        assert!(counts[2].1 + counts[3].1 > 0, "no transport-bound steps");
    }

    #[test]
    fn empty_timeline_attributes_to_zero() {
        let timeline = Timeline::default();
        let circuit = Circuit::new(2);
        let path = critical_path(&timeline, &circuit);
        assert!(path.steps.is_empty());
        let attribution = attribute_path(&timeline, &TimingModel::ideal(), &path);
        assert_eq!(attribution.total_us(), 0.0);
        assert_eq!(attribution.idle_wait_us, 0.0);
    }

    #[test]
    fn trap_reports_match_single_pass_busy_and_find_idle_gaps() {
        let (timeline, _) = lowered(&TimingModel::realistic());
        let reports = trap_reports(&timeline, 2);
        assert_eq!(reports.len(), 2);
        let busy = timeline.trap_busy_all(2);
        for report in &reports {
            assert_eq!(report.busy_us, busy[report.trap.index()]);
            assert_eq!(
                report.busy_us,
                timeline.trap_busy_us(report.trap),
                "single-pass busy diverged from the rescan path"
            );
            assert!(report.utilization > 0.0 && report.utilization <= 1.0);
        }
        // Only one trap gates at a time on this workload, so someone idles.
        assert!(reports.iter().any(|r| r.idle_intervals > 0));
    }

    #[test]
    fn edge_reports_cover_every_segment_once_per_round() {
        let (timeline, _) = lowered(&TimingModel::realistic());
        let reports = edge_reports(&timeline);
        assert!(!reports.is_empty());
        let rounds: usize = reports.iter().map(|r| r.rounds).sum();
        assert!(rounds >= timeline.shuttle_depth);
        for r in &reports {
            assert!(r.a.0 < r.b.0);
            assert!(r.busy_us > 0.0);
        }
    }
}
