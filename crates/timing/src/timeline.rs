//! Timed event timelines and their resource-interval validator.

use qccd_circuit::GateId;
use qccd_machine::{IonId, Operation, Schedule, TrapId};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::ops::Range;

/// One shuttle move as a member of a timed transport round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimedMove {
    /// The moved ion.
    pub ion: IonId,
    /// Source trap.
    pub from: TrapId,
    /// Destination trap.
    pub to: TrapId,
    /// Occupancy of `from` immediately before this move's SPLIT, in the
    /// round's application order (the physics replay divides the source
    /// chain's motional energy by this).
    pub src_occupancy: u32,
    /// Junction endpoints (topology degree ≥ 3) this hop negotiates.
    pub junctions: u32,
}

impl TimedMove {
    /// The move's shuttle-path segment in canonical (low, high) order.
    pub fn segment(&self) -> (TrapId, TrapId) {
        if self.from.0 <= self.to.0 {
            (self.from, self.to)
        } else {
            (self.to, self.from)
        }
    }
}

/// One event on the device timeline.
///
/// A transport round's member moves and involved traps live in the owning
/// [`Timeline`]'s flat [`moves`](Timeline::moves) and
/// [`involved`](Timeline::involved) arrays; the event holds index ranges
/// into them. [`Timeline::iter`] yields every event with its slices
/// resolved.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TimelineEvent {
    /// A gate execution occupying its trap for `[start_us, end_us)`.
    Gate {
        /// The circuit gate.
        gate: GateId,
        /// The trap it runs in.
        trap: TrapId,
        /// Ions in the chain when the gate runs (sets its duration).
        chain_len: u32,
        /// Start time, µs.
        start_us: f64,
        /// End time, µs.
        end_us: f64,
    },
    /// One concurrent transport round: every member move splits, flies and
    /// merges within `[start_us, end_us)`, occupying its shuttle-path
    /// segment and both endpoint traps. The round's duration is its
    /// critical path — the slowest member hop.
    TransportRound {
        /// Member moves in application (departures-first) order, as a
        /// range of [`Timeline::moves`].
        moves: Range<u32>,
        /// Every trap the round occupies, deduplicated, as a range of
        /// [`Timeline::involved`].
        involved: Range<u32>,
        /// Start time, µs.
        start_us: f64,
        /// End time, µs.
        end_us: f64,
    },
    /// An intra-trap zone reorder bringing `ion` into the gate zone.
    ZoneMove {
        /// The reordered ion.
        ion: IonId,
        /// The trap it happens in.
        trap: TrapId,
        /// Start time, µs.
        start_us: f64,
        /// End time, µs.
        end_us: f64,
    },
}

impl TimelineEvent {
    /// Start time of the event, µs.
    pub fn start_us(&self) -> f64 {
        match *self {
            TimelineEvent::Gate { start_us, .. }
            | TimelineEvent::TransportRound { start_us, .. }
            | TimelineEvent::ZoneMove { start_us, .. } => start_us,
        }
    }

    /// End time of the event, µs.
    pub fn end_us(&self) -> f64 {
        match *self {
            TimelineEvent::Gate { end_us, .. }
            | TimelineEvent::TransportRound { end_us, .. }
            | TimelineEvent::ZoneMove { end_us, .. } => end_us,
        }
    }
}

/// One timeline event with a round's member slices borrowed: what the
/// lowering fold ([`LowerState::advance`](crate::LowerState::advance))
/// hands its event sink, and what [`Timeline::iter`] yields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventRef<'a> {
    /// See [`TimelineEvent::Gate`].
    Gate {
        /// The circuit gate.
        gate: GateId,
        /// The trap it runs in.
        trap: TrapId,
        /// Ions in the chain when the gate runs.
        chain_len: u32,
        /// Start time, µs.
        start_us: f64,
        /// End time, µs.
        end_us: f64,
    },
    /// See [`TimelineEvent::TransportRound`].
    TransportRound {
        /// Member moves in application (departures-first) order.
        moves: &'a [TimedMove],
        /// Every trap the round occupies, deduplicated.
        involved: &'a [TrapId],
        /// Start time, µs.
        start_us: f64,
        /// End time, µs.
        end_us: f64,
    },
    /// See [`TimelineEvent::ZoneMove`].
    ZoneMove {
        /// The reordered ion.
        ion: IonId,
        /// The trap it happens in.
        trap: TrapId,
        /// Start time, µs.
        start_us: f64,
        /// End time, µs.
        end_us: f64,
    },
}

impl EventRef<'_> {
    /// Start time of the event, µs.
    pub fn start_us(&self) -> f64 {
        match *self {
            EventRef::Gate { start_us, .. }
            | EventRef::TransportRound { start_us, .. }
            | EventRef::ZoneMove { start_us, .. } => start_us,
        }
    }

    /// End time of the event, µs.
    pub fn end_us(&self) -> f64 {
        match *self {
            EventRef::Gate { end_us, .. }
            | EventRef::TransportRound { end_us, .. }
            | EventRef::ZoneMove { end_us, .. } => end_us,
        }
    }
}

/// A compiled program lowered onto the device clock: every gate, transport
/// round and zone move with explicit start/end times, ASAP-scheduled under
/// a [`TimingModel`](crate::TimingModel).
///
/// Produced by [`lower`](crate::lower); consumed by reporting layers for
/// timed columns and by the explanation layer. Round members are stored
/// flat: all rounds' moves in one array, all their involved traps in
/// another, each round holding its two index ranges.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    /// Events in schedule order.
    pub events: Vec<TimelineEvent>,
    /// Every round's member moves, round after round.
    pub moves: Vec<TimedMove>,
    /// Every round's involved traps, round after round.
    pub involved: Vec<TrapId>,
    /// End-to-end execution time: the latest event end, µs.
    pub makespan_us: f64,
    /// Gate events.
    pub gates: usize,
    /// Total shuttle moves across all rounds.
    pub shuttles: usize,
    /// Transport rounds (the schedule's transport depth).
    pub shuttle_depth: usize,
    /// Intra-trap zone reorders synthesized for multi-zone traps.
    pub zone_moves: usize,
    /// Total junction endpoints crossed by all shuttle moves.
    pub junction_crossings: usize,
}

impl Timeline {
    /// An empty timeline with room for `events` events, `moves` round
    /// members and `involved` round traps; counters and makespan are zero.
    pub fn with_capacity(events: usize, moves: usize, involved: usize) -> Timeline {
        Timeline {
            events: Vec::with_capacity(events),
            moves: Vec::with_capacity(moves),
            involved: Vec::with_capacity(involved),
            ..Timeline::default()
        }
    }

    /// An empty timeline with room for lowering `schedule`: every shuttle
    /// op is exactly one round member and involves at most two traps;
    /// rounds and zone moves aside, every op is one event.
    pub fn for_schedule(schedule: &Schedule) -> Timeline {
        let shuttles = schedule
            .operations
            .iter()
            .filter(|op| matches!(op, Operation::Shuttle { .. }))
            .count();
        Timeline::with_capacity(schedule.operations.len(), shuttles, 2 * shuttles)
    }

    /// Appends one emitted event, copying a round's member slices into the
    /// flat arrays. Counters and makespan are left alone (the fold stamps
    /// them in [`LowerState::finish`](crate::LowerState::finish)).
    pub fn push(&mut self, event: EventRef<'_>) {
        self.events.push(match event {
            EventRef::Gate {
                gate,
                trap,
                chain_len,
                start_us,
                end_us,
            } => TimelineEvent::Gate {
                gate,
                trap,
                chain_len,
                start_us,
                end_us,
            },
            EventRef::TransportRound {
                moves,
                involved,
                start_us,
                end_us,
            } => TimelineEvent::TransportRound {
                moves: append(&mut self.moves, moves),
                involved: append(&mut self.involved, involved),
                start_us,
                end_us,
            },
            EventRef::ZoneMove {
                ion,
                trap,
                start_us,
                end_us,
            } => TimelineEvent::ZoneMove {
                ion,
                trap,
                start_us,
                end_us,
            },
        });
    }

    /// A round's member moves in application order; empty for any other
    /// event.
    pub fn round_moves(&self, event: &TimelineEvent) -> &[TimedMove] {
        match event {
            TimelineEvent::TransportRound { moves, .. } => {
                &self.moves[moves.start as usize..moves.end as usize]
            }
            _ => &[],
        }
    }

    /// A round's involved traps; empty for any other event.
    pub fn round_involved(&self, event: &TimelineEvent) -> &[TrapId] {
        match event {
            TimelineEvent::TransportRound { involved, .. } => {
                &self.involved[involved.start as usize..involved.end as usize]
            }
            _ => &[],
        }
    }

    /// Every event in schedule order, with round slices resolved.
    pub fn iter(&self) -> impl Iterator<Item = EventRef<'_>> {
        self.events.iter().map(|event| match *event {
            TimelineEvent::Gate {
                gate,
                trap,
                chain_len,
                start_us,
                end_us,
            } => EventRef::Gate {
                gate,
                trap,
                chain_len,
                start_us,
                end_us,
            },
            TimelineEvent::TransportRound {
                start_us, end_us, ..
            } => EventRef::TransportRound {
                moves: self.round_moves(event),
                involved: self.round_involved(event),
                start_us,
                end_us,
            },
            TimelineEvent::ZoneMove {
                ion,
                trap,
                start_us,
                end_us,
            } => EventRef::ZoneMove {
                ion,
                trap,
                start_us,
                end_us,
            },
        })
    }

    /// Checks the timeline's resource intervals: on every trap and every
    /// shuttle-path segment, event intervals must be non-overlapping (they
    /// may touch), and every event must have a non-negative duration no
    /// later than the recorded makespan.
    ///
    /// Overlaps are reported deterministically: the lowest double-booked
    /// trap first, then the lowest double-booked segment, each with its
    /// first clash in start order. The check keeps one running lane per
    /// trap and per segment, so it needs memory for the resources only,
    /// not for the bookings (lowered timelines book every resource in
    /// start order; a lane booked out of order is re-read and sorted).
    ///
    /// # Errors
    ///
    /// The first violated rule, as a [`TimelineError`].
    pub fn validate(&self) -> Result<(), TimelineError> {
        let span = self.moves.iter().fold(self.trap_span(0), |acc, m| {
            acc.max(m.from.index().max(m.to.index()) + 1)
        });
        let mut traps = vec![Lane::default(); span];
        // Segment lanes by their low endpoint, each keyed by the high one.
        let mut segments: Vec<Vec<(TrapId, Lane)>> = vec![Vec::new(); span];
        for (index, event) in self.iter().enumerate() {
            let (start, end) = (event.start_us(), event.end_us());
            if !(start.is_finite() && end.is_finite()) || end < start {
                return Err(TimelineError::BadInterval { index });
            }
            if end > self.makespan_us {
                return Err(TimelineError::EventPastMakespan { index });
            }
            match event {
                EventRef::Gate { trap, .. } | EventRef::ZoneMove { trap, .. } => {
                    traps[trap.index()].book(start, end);
                }
                EventRef::TransportRound {
                    moves, involved, ..
                } => {
                    for t in involved {
                        traps[t.index()].book(start, end);
                    }
                    for m in moves {
                        let (a, b) = m.segment();
                        let lanes = &mut segments[a.index()];
                        let k = match lanes.iter().position(|(hi, _)| *hi == b) {
                            Some(k) => k,
                            None => {
                                lanes.push((b, Lane::default()));
                                lanes.len() - 1
                            }
                        };
                        lanes[k].1.book(start, end);
                    }
                }
            }
        }
        for (t, lane) in traps.iter().enumerate() {
            let trap = TrapId(t as u32);
            let clash = lane.first_clash(|| {
                self.bookings(|e| match e {
                    EventRef::Gate { trap: at, .. } | EventRef::ZoneMove { trap: at, .. } => {
                        usize::from(*at == trap)
                    }
                    EventRef::TransportRound { involved, .. } => {
                        involved.iter().filter(|&&at| at == trap).count()
                    }
                })
            });
            if let Some((first_end_us, second_start_us)) = clash {
                return Err(TimelineError::TrapOverlap {
                    trap,
                    first_end_us,
                    second_start_us,
                });
            }
        }
        for (low, lanes) in segments.iter_mut().enumerate() {
            let a = TrapId(low as u32);
            lanes.sort_by_key(|&(b, _)| b);
            for &(b, lane) in lanes.iter() {
                let clash = lane.first_clash(|| {
                    self.bookings(|e| match e {
                        EventRef::TransportRound { moves, .. } => {
                            moves.iter().filter(|m| m.segment() == (a, b)).count()
                        }
                        _ => 0,
                    })
                });
                if let Some((first_end_us, second_start_us)) = clash {
                    return Err(TimelineError::EdgeOverlap {
                        a,
                        b,
                        first_end_us,
                        second_start_us,
                    });
                }
            }
        }
        Ok(())
    }

    /// Every event's `(start, end)` window, repeated `times(event)` times,
    /// in event order.
    fn bookings(&self, times: impl Fn(&EventRef<'_>) -> usize) -> Vec<(f64, f64)> {
        self.iter()
            .flat_map(|e| std::iter::repeat_n((e.start_us(), e.end_us()), times(&e)))
            .collect()
    }

    /// Total time a given trap is busy (gates + transport + zone moves), µs.
    ///
    /// Rescans every event; callers needing more than one trap should use
    /// the single-pass [`trap_busy_all`](Timeline::trap_busy_all) instead
    /// (a unit test pins the two paths equal bit-for-bit).
    pub fn trap_busy_us(&self, trap: TrapId) -> f64 {
        self.iter()
            .filter(|e| match e {
                EventRef::Gate { trap: t, .. } | EventRef::ZoneMove { trap: t, .. } => *t == trap,
                EventRef::TransportRound { involved, .. } => involved.contains(&trap),
            })
            .map(|e| e.end_us() - e.start_us())
            .sum()
    }

    /// Busy time of **all** traps in one pass over the events, µs, indexed
    /// by trap. The result covers `num_traps` entries (extended if an
    /// event references a higher trap index). Each trap's entry equals
    /// [`trap_busy_us`](Timeline::trap_busy_us) bit-for-bit: events are
    /// accumulated in the same order that path visits them.
    pub fn trap_busy_all(&self, num_traps: usize) -> Vec<f64> {
        let mut busy = vec![0.0f64; self.trap_span(num_traps)];
        for event in self.iter() {
            let dur = event.end_us() - event.start_us();
            match event {
                EventRef::Gate { trap, .. } | EventRef::ZoneMove { trap, .. } => {
                    busy[trap.index()] += dur;
                }
                EventRef::TransportRound { involved, .. } => {
                    for t in involved {
                        busy[t.index()] += dur;
                    }
                }
            }
        }
        busy
    }

    /// `num_traps`, raised to cover the highest trap index any event
    /// references.
    pub(crate) fn trap_span(&self, num_traps: usize) -> usize {
        let gated = self.events.iter().fold(num_traps, |acc, e| match e {
            TimelineEvent::Gate { trap, .. } | TimelineEvent::ZoneMove { trap, .. } => {
                acc.max(trap.index() + 1)
            }
            TimelineEvent::TransportRound { .. } => acc,
        });
        self.involved
            .iter()
            .fold(gated, |acc, t| acc.max(t.index() + 1))
    }
}

/// Appends `items` to `flat` and returns their index range.
fn append<T: Copy>(flat: &mut Vec<T>, items: &[T]) -> Range<u32> {
    let start = flat.len() as u32;
    flat.extend_from_slice(items);
    start..flat.len() as u32
}

/// One resource's bookings as [`Timeline::validate`] streams them, in
/// event order. While starts never decrease, sorting the bookings by start
/// (ties keeping event order) changes nothing, so the first clash in start
/// order is the first booking that starts before its predecessor ends.
#[derive(Debug, Clone, Copy, Default)]
struct Lane {
    /// The latest booking, `(start, end)`.
    last: Option<(f64, f64)>,
    /// The first clash seen, `(earlier end, later start)`.
    clash: Option<(f64, f64)>,
    /// A booking started before its predecessor.
    unsorted: bool,
}

impl Lane {
    fn book(&mut self, start: f64, end: f64) {
        if let Some((last_start, last_end)) = self.last {
            if start < last_start {
                self.unsorted = true;
            } else if self.clash.is_none() && start < last_end {
                self.clash = Some((last_end, start));
            }
        }
        self.last = Some((start, end));
    }

    /// The lane's first clash in start order, `(earlier end, later
    /// start)`; an unsorted lane re-reads its bookings and sorts them.
    fn first_clash(&self, bookings: impl FnOnce() -> Vec<(f64, f64)>) -> Option<(f64, f64)> {
        if !self.unsorted {
            return self.clash;
        }
        let mut windows = bookings();
        windows.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("validated finite"));
        windows
            .windows(2)
            .find(|w| w[1].0 < w[0].1)
            .map(|w| (w[0].1, w[1].0))
    }
}

/// A violated timeline invariant, reported by [`Timeline::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum TimelineError {
    /// An event has a non-finite or negative-length interval.
    BadInterval {
        /// Index of the offending event.
        index: usize,
    },
    /// An event ends after the timeline's recorded makespan.
    EventPastMakespan {
        /// Index of the offending event.
        index: usize,
    },
    /// Two events overlap on one trap resource.
    TrapOverlap {
        /// The double-booked trap.
        trap: TrapId,
        /// End of the earlier event, µs.
        first_end_us: f64,
        /// Start of the overlapping later event, µs.
        second_start_us: f64,
    },
    /// Two rounds overlap on one shuttle-path segment.
    EdgeOverlap {
        /// First endpoint of the contested segment.
        a: TrapId,
        /// Second endpoint of the contested segment.
        b: TrapId,
        /// End of the earlier round, µs.
        first_end_us: f64,
        /// Start of the overlapping later round, µs.
        second_start_us: f64,
    },
}

impl fmt::Display for TimelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimelineError::BadInterval { index } => {
                write!(f, "event {index} has a non-finite or negative interval")
            }
            TimelineError::EventPastMakespan { index } => {
                write!(f, "event {index} ends after the recorded makespan")
            }
            TimelineError::TrapOverlap {
                trap,
                first_end_us,
                second_start_us,
            } => write!(
                f,
                "trap {trap} double-booked: event starting at {second_start_us} us overlaps one ending at {first_end_us} us"
            ),
            TimelineError::EdgeOverlap {
                a,
                b,
                first_end_us,
                second_start_us,
            } => write!(
                f,
                "segment {a} — {b} double-booked: round starting at {second_start_us} us overlaps one ending at {first_end_us} us"
            ),
        }
    }
}

impl Error for TimelineError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built event, before the flat layout: rounds carry their own
    /// member vectors.
    enum Ev {
        Gate(u32, f64, f64),
        Round(Vec<TimedMove>, Vec<TrapId>, f64, f64),
    }

    fn gate(trap: u32, start: f64, end: f64) -> Ev {
        Ev::Gate(trap, start, end)
    }

    fn round(from: u32, to: u32, start: f64, end: f64) -> Ev {
        let hop = TimedMove {
            ion: IonId(0),
            from: TrapId(from),
            to: TrapId(to),
            src_occupancy: 1,
            junctions: 0,
        };
        Ev::Round(vec![hop], vec![TrapId(from), TrapId(to)], start, end)
    }

    fn timeline(events: Vec<Ev>) -> Timeline {
        let mut t = Timeline::default();
        for ev in &events {
            t.push(match ev {
                &Ev::Gate(trap, start_us, end_us) => EventRef::Gate {
                    gate: GateId(0),
                    trap: TrapId(trap),
                    chain_len: 2,
                    start_us,
                    end_us,
                },
                Ev::Round(moves, involved, start_us, end_us) => EventRef::TransportRound {
                    moves,
                    involved,
                    start_us: *start_us,
                    end_us: *end_us,
                },
            });
        }
        t.makespan_us = t.iter().map(|e| e.end_us()).fold(0.0, f64::max);
        t
    }

    #[test]
    fn disjoint_and_touching_intervals_validate() {
        let t = timeline(vec![
            gate(0, 0.0, 100.0),
            gate(1, 50.0, 150.0),  // different trap: overlap fine
            gate(0, 100.0, 200.0), // touching is fine
            round(0, 1, 200.0, 365.0),
        ]);
        t.validate().unwrap();
        assert_eq!(t.makespan_us, 365.0);
        assert!((t.trap_busy_us(TrapId(0)) - 365.0).abs() < 1e-9);
    }

    #[test]
    fn rounds_store_their_members_flat() {
        let t = timeline(vec![
            round(0, 1, 0.0, 165.0),
            gate(1, 165.0, 265.0),
            round(1, 2, 265.0, 430.0),
        ]);
        assert_eq!(t.moves.len(), 2);
        assert_eq!(t.involved, vec![TrapId(0), TrapId(1), TrapId(1), TrapId(2)]);
        assert_eq!(t.round_moves(&t.events[2])[0].to, TrapId(2));
        assert_eq!(t.round_involved(&t.events[2]), &[TrapId(1), TrapId(2)]);
        assert!(t.round_moves(&t.events[1]).is_empty());
        assert!(t.round_involved(&t.events[1]).is_empty());
        // Pushing what `iter` yields rebuilds the same timeline.
        let mut copy = Timeline::default();
        for event in t.iter() {
            copy.push(event);
        }
        copy.makespan_us = t.makespan_us;
        assert_eq!(copy, t);
    }

    #[test]
    fn trap_overlap_detected() {
        let t = timeline(vec![gate(0, 0.0, 100.0), gate(0, 99.0, 150.0)]);
        assert_eq!(
            t.validate().unwrap_err(),
            TimelineError::TrapOverlap {
                trap: TrapId(0),
                first_end_us: 100.0,
                second_start_us: 99.0
            }
        );
    }

    #[test]
    fn overlap_report_is_deterministic_and_names_the_lowest_trap() {
        // Overlapping gates on eight traps, booked highest trap first:
        // every validation must report the same, lowest clash.
        let events = (0..8u32)
            .rev()
            .flat_map(|trap| {
                let offset = f64::from(trap);
                [
                    gate(trap, offset, offset + 100.0),
                    gate(trap, offset + 50.0, offset + 150.0),
                ]
            })
            .collect();
        let t = timeline(events);
        let mut errors: Vec<TimelineError> = Vec::new();
        for _ in 0..100 {
            let err = t.validate().unwrap_err();
            if !errors.contains(&err) {
                errors.push(err);
            }
        }
        assert_eq!(
            errors,
            vec![TimelineError::TrapOverlap {
                trap: TrapId(0),
                first_end_us: 100.0,
                second_start_us: 50.0
            }]
        );
    }

    #[test]
    fn out_of_order_bookings_report_the_first_clash_in_start_order() {
        // Booked late-first: sorted by start, (0, 150) precedes (100, 200),
        // so the clash is "ends at 150, next starts at 100".
        let t = timeline(vec![gate(0, 100.0, 200.0), gate(0, 0.0, 150.0)]);
        assert_eq!(
            t.validate().unwrap_err(),
            TimelineError::TrapOverlap {
                trap: TrapId(0),
                first_end_us: 150.0,
                second_start_us: 100.0
            }
        );
    }

    /// The validator before lanes: every booking collected, stably sorted
    /// by resource then start, the first consecutive clash of the lowest
    /// clashing trap, then of the lowest clashing segment.
    fn sorted_reference(t: &Timeline) -> Result<(), TimelineError> {
        fn first<K: Ord + Copy>(mut b: Vec<(K, f64, f64)>) -> Option<(K, f64, f64)> {
            b.sort_by(|x, y| x.0.cmp(&y.0).then(x.1.partial_cmp(&y.1).unwrap()));
            b.windows(2)
                .find(|w| w[0].0 == w[1].0 && w[1].1 < w[0].2)
                .map(|w| (w[0].0, w[0].2, w[1].1))
        }
        let mut traps = Vec::new();
        let mut edges = Vec::new();
        for e in t.iter() {
            let (s, f) = (e.start_us(), e.end_us());
            match e {
                EventRef::Gate { trap, .. } | EventRef::ZoneMove { trap, .. } => {
                    traps.push((trap, s, f))
                }
                EventRef::TransportRound {
                    moves, involved, ..
                } => {
                    traps.extend(involved.iter().map(|&x| (x, s, f)));
                    edges.extend(moves.iter().map(|m| (m.segment(), s, f)));
                }
            }
        }
        if let Some((trap, first_end_us, second_start_us)) = first(traps) {
            return Err(TimelineError::TrapOverlap {
                trap,
                first_end_us,
                second_start_us,
            });
        }
        if let Some(((a, b), first_end_us, second_start_us)) = first(edges) {
            return Err(TimelineError::EdgeOverlap {
                a,
                b,
                first_end_us,
                second_start_us,
            });
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Lanes report exactly what sorting every booking reports, on
        /// hand-built timelines booked in any order, with or without
        /// clashes, including rounds whose involved traps are not their
        /// segment endpoints.
        #[test]
        fn lanes_match_the_sorted_reference(
            raw in proptest::collection::vec(
                (0u32..3, 0u32..4, 0u32..4, 0u32..40, 1u32..12, proptest::prelude::any::<bool>()),
                1..24,
            ),
        ) {
            let events = raw
                .into_iter()
                .map(|(kind, a, b, start, len, detach)| {
                    let (start, end) = (f64::from(start), f64::from(start + len));
                    if kind == 0 || a == b {
                        gate(a, start, end)
                    } else {
                        let mut r = round(a, b, start, end);
                        if detach {
                            if let Ev::Round(_, involved, ..) = &mut r {
                                *involved = vec![TrapId(4 + a)];
                            }
                        }
                        r
                    }
                })
                .collect();
            let t = timeline(events);
            proptest::prop_assert_eq!(t.validate(), sorted_reference(&t));
        }
    }

    #[test]
    fn edge_overlap_detected() {
        // Rounds on the same segment at overlapping times also share
        // their endpoint traps, so some resource clash must be reported.
        let t = timeline(vec![round(0, 1, 0.0, 165.0), round(1, 0, 100.0, 265.0)]);
        assert!(t.validate().is_err());
    }

    #[test]
    fn edge_overlap_variant_reported() {
        // Overlapping rounds normally trip the trap check first (a
        // segment's endpoints are always involved traps), so hand-build
        // rounds that share segment (0, 1) while booking disjoint traps:
        // only the edge check can fire. A second clash on the higher
        // segment (2, 3) must not be the one reported.
        let mut events = vec![
            round(3, 2, 0.0, 165.0),
            round(2, 3, 100.0, 265.0),
            round(0, 1, 0.0, 165.0),
            round(1, 0, 100.0, 265.0),
        ];
        for (k, ev) in events.iter_mut().enumerate() {
            if let Ev::Round(_, involved, ..) = ev {
                *involved = vec![TrapId(4 + k as u32)];
            }
        }
        let t = timeline(events);
        assert_eq!(
            t.validate().unwrap_err(),
            TimelineError::EdgeOverlap {
                a: TrapId(0),
                b: TrapId(1),
                first_end_us: 165.0,
                second_start_us: 100.0
            }
        );
    }

    #[test]
    fn non_finite_interval_detected() {
        let t = timeline(vec![gate(0, 0.0, f64::NAN)]);
        assert_eq!(
            t.validate().unwrap_err(),
            TimelineError::BadInterval { index: 0 }
        );
        let t = timeline(vec![gate(0, f64::INFINITY, f64::INFINITY)]);
        assert_eq!(
            t.validate().unwrap_err(),
            TimelineError::BadInterval { index: 0 }
        );
    }

    #[test]
    fn every_error_variant_displays_its_resource() {
        let cases: Vec<(TimelineError, &str)> = vec![
            (TimelineError::BadInterval { index: 3 }, "event 3"),
            (TimelineError::EventPastMakespan { index: 7 }, "event 7"),
            (
                TimelineError::TrapOverlap {
                    trap: TrapId(2),
                    first_end_us: 10.0,
                    second_start_us: 5.0,
                },
                "trap T2",
            ),
            (
                TimelineError::EdgeOverlap {
                    a: TrapId(0),
                    b: TrapId(1),
                    first_end_us: 10.0,
                    second_start_us: 5.0,
                },
                "segment T0",
            ),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err} missing {needle:?}");
        }
    }

    #[test]
    fn trap_busy_all_pins_equality_to_per_trap_rescan() {
        let t = timeline(vec![
            gate(0, 0.0, 100.0),
            gate(1, 50.0, 150.0),
            gate(0, 100.0, 200.0),
            round(0, 1, 200.0, 365.0),
        ]);
        let busy = t.trap_busy_all(2);
        assert_eq!(busy.len(), 2);
        for trap in 0..2u32 {
            assert_eq!(
                busy[trap as usize],
                t.trap_busy_us(TrapId(trap)),
                "single-pass accessor diverged from the rescan path on trap {trap}"
            );
        }
        // The result extends past `num_traps` when events reference
        // higher trap ids, and pads untouched traps with zero.
        assert_eq!(t.trap_busy_all(0).len(), 2);
        assert_eq!(t.trap_busy_all(4).len(), 4);
        assert_eq!(t.trap_busy_all(4)[3], 0.0);
    }

    #[test]
    fn bad_intervals_detected() {
        let t = timeline(vec![gate(0, 100.0, 50.0)]);
        assert_eq!(
            t.validate().unwrap_err(),
            TimelineError::BadInterval { index: 0 }
        );
        let mut t = timeline(vec![gate(0, 0.0, 100.0)]);
        t.makespan_us = 50.0;
        assert_eq!(
            t.validate().unwrap_err(),
            TimelineError::EventPastMakespan { index: 0 }
        );
    }
}
