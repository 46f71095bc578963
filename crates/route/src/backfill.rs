//! The shared round-backfill core behind both first-fit packers.
//!
//! `pack_lookahead_inner` (this crate: per gate-free run, capacity with
//! same-round departure credit) and `pack_cross_gate` (`qccd-pack`:
//! global, no-credit capacity, gate fences, bounded window, optional
//! share-only joins) used to carry near-identical RoundBuild /
//! occupancy-snapshot / arrival-index bookkeeping. [`RoundBackfill`] is
//! that bookkeeping extracted once, parameterized by the
//! [`CreditRule`] and the join fences, so the two packers stay in
//! lockstep by construction.
//!
//! The invariants the core maintains per placed hop:
//!
//! * **first-fit** — a hop joins the earliest round `r ≥` its fence
//!   (per-ion order, per-trap gate fences, scan window) that accepts it;
//! * **machine round rules** — fresh segment, at most one split and one
//!   merge per trap per round;
//! * **capacity** — the destination has room entering the round; under
//!   [`CreditRule::DepartureCredit`] a same-round departure out of the
//!   destination extends that room (the in-run packers replay rounds
//!   atomically), under [`CreditRule::NoCredit`] it never does (so the
//!   flat emission stays serially valid in any within-round order);
//! * **downstream re-check** — placing an arrival at trap `t` in round
//!   `r` raises `t`'s occupancy in every later round; the rounds indexed
//!   by the per-trap arrival lists are re-checked so their own single
//!   arrival still fits.
//!
//! Cost per placement: the first-fit scan examines at most `min(window,
//! rounds since the hop's fences)` candidate rounds, each in O(1): a round
//! holds at most one departure per trap, so the only member that can share
//! the hop's segment is the one leaving `to`, and the departure column,
//! which holds each split's destination, says whether it goes to `from`.
//! The downstream re-check of a candidate round `r` reads only the
//! destination's arrivals after `r` (found by binary search), so across
//! the scan it reads each of them at most once per candidate. Accepting
//! the hop updates the two traps' columns of the occupancy rows after the
//! chosen round and inserts into one sorted arrival list. The
//! `route.backfill_scan` counter adds up the candidate rounds and
//! downstream entries each placement reads.
//!
//! Storage: occupancies, arrivals and departures (each as its destination)
//! live in flat row-major `rounds × traps` vectors that hold only the
//! rounds a placement can still read. The scan never looks below `rounds −
//! window`, the downstream re-check reads only rounds after the candidate,
//! and accepting a hop writes only rows after the chosen round, so rows
//! (and arrival-list entries) older than `rounds − window` are dead. Once
//! `max(window, 64)` of them have accumulated they are drained from the
//! front in one amortized O(traps)-per-row move that keeps the live rows
//! contiguous. The state is therefore O(window × traps) plus the placed
//! moves, instead of O(rounds × traps); an unbounded window (`usize::MAX`)
//! never drops a row. The placed moves sit in one flat array in placement
//! order, each tagged with its round, and a round keeps only its member
//! count: opening a round appends a row and allocates nothing per round.
//! The rounds are handed out flat ([`FlatRounds`]: moves in round order
//! plus each round's end), sorted by one counting pass over the tags.

use crate::FlatRounds;
use qccd_machine::{ShuttleMove, TrapId};

/// Hops offered to [`RoundBackfill::place`] (backfill attempts).
static BACKFILL_PLACEMENTS: qccd_obs::Counter = qccd_obs::Counter::new("route.backfill_attempts");
/// Hops accepted into an already-open round (first-fit joins).
static BACKFILL_JOINS: qccd_obs::Counter = qccd_obs::Counter::new("route.backfill_accepts");
/// Accepted hops hoisted across at least one later-noted gate.
static BACKFILL_HOISTS: qccd_obs::Counter = qccd_obs::Counter::new("route.backfill_hoists");
/// Scan work: candidate rounds examined plus downstream arrival entries
/// re-checked, summed over every placement.
static BACKFILL_SCAN: qccd_obs::Counter = qccd_obs::Counter::new("route.backfill_scan");

/// Whether a same-round departure out of a trap frees capacity for a
/// same-round arrival into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CreditRule {
    /// Arrivals may use the room opened by this round's departures — the
    /// in-run packers' rule, matching `MachineState::apply_round`'s
    /// departures-first replay.
    DepartureCredit,
    /// Arrivals only fit where the trap has room *before* the round — the
    /// cross-gate packer's rule, which keeps every round's moves serially
    /// replayable in any order.
    NoCredit,
}

/// The join rules one packer instantiates the core with.
#[derive(Debug, Clone, Copy)]
pub struct BackfillRules {
    /// Capacity-credit rule for same-round departures.
    pub credit: CreditRule,
    /// When set, a hop joins an existing round only if it shares an
    /// endpoint trap with a member move (the pipeline/corridor case).
    pub share_only: bool,
    /// How many rounds back the first-fit scan looks (`usize::MAX` for
    /// unbounded).
    pub window: usize,
}

/// One round under construction: its members live in
/// [`RoundBackfill::members`], tagged with the round's index.
#[derive(Debug, Clone, Copy)]
struct RoundSlot {
    /// Member moves placed so far.
    len: u32,
    /// Gates noted when this round was opened (hoist accounting).
    gates_at_creation: usize,
}

/// Where [`RoundBackfill::place`] put a hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Index of the chosen round.
    pub round: usize,
    /// `true` when the hop opened a new round (no existing one accepted).
    pub opened: bool,
    /// `true` when the chosen round predates at least one gate noted
    /// after it was opened — the hop was hoisted across that gate.
    pub hoisted: bool,
}

/// The shared first-fit backfill state: rounds, the per-round trap
/// occupancy snapshots, the per-trap arrival indexes, the per-trap gate
/// fences, and the per-ion order fences.
#[derive(Debug, Clone)]
pub struct RoundBackfill {
    rules: BackfillRules,
    cap: u32,
    num_traps: usize,
    rounds: Vec<RoundSlot>,
    /// Every placed move with its round's index, in placement order.
    members: Vec<(u32, ShuttleMove)>,
    /// The rounds last handed out by [`drain_rounds`](Self::drain_rounds),
    /// kept so the next run reuses the allocation.
    drained: FlatRounds,
    /// The oldest round whose rows are still stored; every earlier round
    /// lies behind the scan window for good.
    base: usize,
    /// Row-major `(rounds − base + 1) × traps`: row `r − base` holds the
    /// trap occupancies entering round `r`; the extra last row is "after
    /// the last round".
    occ_before: Vec<u32>,
    /// Row-major `(rounds − base) × traps`: merges into each trap per
    /// round.
    arrivals: Vec<u32>,
    /// Row-major `(rounds − base) × traps`: each trap's split per round,
    /// as its destination's index plus one, or 0 when none leaves (a round
    /// holds at most one departure per trap).
    departure: Vec<u32>,
    /// Rounds `≥ base` with an arrival at each trap, ascending.
    arrival_rounds: Vec<Vec<usize>>,
    /// A hop touching trap `t` may not join a round older than
    /// `min_join[t]` (set by every gate noted in `t`).
    min_join: Vec<usize>,
    /// Indexed by ion: one past the round of the ion's latest hop (0 when
    /// it has none), the earliest round its next hop may join.
    ion_fence: Vec<usize>,
    gates_noted: usize,
}

/// The `departure` entry of a split to trap `t`.
fn departure_to(t: usize) -> u32 {
    u32::try_from(t + 1).expect("fewer than 2^32 traps")
}

impl RoundBackfill {
    /// Starts an empty backfill over `num_traps` traps of capacity `cap`,
    /// seeded with the occupancies `occ0` the first round will see.
    pub fn new(num_traps: usize, cap: u32, occ0: Vec<u32>, rules: BackfillRules) -> Self {
        debug_assert_eq!(occ0.len(), num_traps);
        RoundBackfill {
            rules,
            cap,
            num_traps,
            rounds: Vec::new(),
            members: Vec::new(),
            drained: FlatRounds::default(),
            base: 0,
            occ_before: occ0,
            arrivals: Vec::new(),
            departure: Vec::new(),
            arrival_rounds: vec![Vec::new(); num_traps],
            min_join: vec![0; num_traps],
            ion_fence: Vec::new(),
            gates_noted: 0,
        }
    }

    /// Empties the backfill for a fresh start from the occupancies
    /// `occ0`, under the same traps, capacity and rules: equivalent to
    /// [`new`](Self::new), but it keeps the row, round and arrival-list
    /// allocations. Drain the rounds first; any left are dropped.
    pub fn reset(&mut self, occ0: impl IntoIterator<Item = u32>) {
        self.rounds.clear();
        self.members.clear();
        self.base = 0;
        self.occ_before.clear();
        self.occ_before.extend(occ0);
        debug_assert_eq!(self.occ_before.len(), self.num_traps);
        self.arrivals.clear();
        self.departure.clear();
        self.arrival_rounds.iter_mut().for_each(Vec::clear);
        self.min_join.fill(0);
        self.ion_fence.clear();
        self.gates_noted = 0;
    }

    /// Notes a gate executing in `trap`: hops touching it may no longer
    /// join any currently-open round, and rounds opened from here on count
    /// as "after this gate" for hoist accounting.
    pub fn note_gate(&mut self, trap: TrapId) {
        self.min_join[trap.index()] = self.rounds.len();
        self.gates_noted += 1;
    }

    /// Whether an arrival at trap `t` fits round `r` when the trap already
    /// holds `extra` more ions than its snapshot: the room entering the
    /// round, plus under [`CreditRule::DepartureCredit`] the room the
    /// round's own departures open. Summed in u64, so a capacity near
    /// `u32::MAX` cannot wrap.
    fn fits(&self, r: usize, t: usize, extra: u32) -> bool {
        let k = self.row(r) + t;
        let credit = match self.rules.credit {
            CreditRule::DepartureCredit => u32::from(self.departure[k] != 0),
            CreditRule::NoCredit => 0,
        };
        u64::from(self.occ_before[k]) + u64::from(extra) <= u64::from(self.cap) + u64::from(credit)
    }

    /// Offset of round `r`'s row in the flat row-major vectors.
    fn row(&self, r: usize) -> usize {
        debug_assert!(r >= self.base, "round {r} was trimmed (base {})", self.base);
        (r - self.base) * self.num_traps
    }

    /// Drops the rows and arrival-list entries the scan window has left
    /// behind, once at least `max(window, 64)` of them have gone stale.
    fn trim(&mut self) {
        let live = self.rounds.len().saturating_sub(self.rules.window);
        let stale = live - self.base;
        if stale < self.rules.window.max(64) {
            return;
        }
        let cells = stale * self.num_traps;
        self.occ_before.drain(..cells);
        self.arrivals.drain(..cells);
        self.departure.drain(..cells);
        for list in &mut self.arrival_rounds {
            let dead = list.partition_point(|&s| s < live);
            list.drain(..dead);
        }
        self.base = live;
    }

    /// First-fit places `m` into the earliest legal round, opening a new
    /// one when nothing accepts, and maintains every snapshot and index.
    pub fn place(&mut self, m: ShuttleMove) -> Placement {
        let (fi, ti) = (m.from.index(), m.to.index());
        let nt = self.num_traps;
        let lo = self.min_join[fi]
            .max(self.min_join[ti])
            .max(self.ion_fence.get(m.ion.index()).copied().unwrap_or(0))
            .max(self.rounds.len().saturating_sub(self.rules.window));
        let mut scanned = 0u64;
        let mut chosen = None;
        for r in lo..self.rounds.len() {
            scanned += 1;
            let row = self.row(r);
            // No member leaves `from` or enters `to` past the first two
            // tests, so the only member on the hop's segment would be the
            // one leaving `to` for `from`.
            if self.departure[row + fi] != 0
                || self.arrivals[row + ti] > 0
                || !self.fits(r, ti, 1)
                || self.departure[row + ti] == departure_to(fi)
            {
                continue;
            }
            // For the same reason a member touches `from` or `to` exactly
            // when one enters `from` or leaves `to`.
            if self.rules.share_only
                && self.arrivals[row + fi] == 0
                && self.departure[row + ti] == 0
            {
                continue;
            }
            // Downstream: the ion occupies `to` from round r on; later
            // rounds with an arrival there must keep room for their own
            // single arrival (one merge per trap per round) under the
            // credit rule.
            let list = &self.arrival_rounds[ti];
            let mut downstream_ok = true;
            for &s in &list[list.partition_point(|&s| s <= r)..] {
                scanned += 1;
                if !self.fits(s, ti, 2) {
                    downstream_ok = false;
                    break;
                }
            }
            if downstream_ok {
                chosen = Some(r);
                break;
            }
        }
        BACKFILL_SCAN.add(scanned);
        let (chosen, opened) = match chosen {
            Some(r) => (r, false),
            None => {
                self.rounds.push(RoundSlot {
                    len: 0,
                    gates_at_creation: self.gates_noted,
                });
                let last = self.occ_before.len() - nt;
                self.occ_before.extend_from_within(last..);
                self.arrivals.resize(self.arrivals.len() + nt, 0);
                self.departure.resize(self.departure.len() + nt, 0);
                (self.rounds.len() - 1, true)
            }
        };
        let slot = &mut self.rounds[chosen];
        let hoisted = slot.gates_at_creation < self.gates_noted;
        slot.len += 1;
        let tag = u32::try_from(chosen).expect("fewer than 2^32 rounds");
        self.members.push((tag, m));
        let row = self.row(chosen);
        debug_assert_eq!(self.departure[row + fi], 0, "one departure per trap");
        self.departure[row + fi] = departure_to(ti);
        self.arrivals[row + ti] += 1;
        let list = &mut self.arrival_rounds[ti];
        let pos = list.partition_point(|&s| s < chosen);
        list.insert(pos, chosen);
        for occ in self.occ_before[row + nt..].chunks_exact_mut(nt) {
            occ[fi] -= 1;
            occ[ti] += 1;
        }
        let ion = m.ion.index();
        if ion >= self.ion_fence.len() {
            self.ion_fence.resize(ion + 1, 0);
        }
        self.ion_fence[ion] = chosen + 1;
        BACKFILL_PLACEMENTS.incr();
        if opened {
            self.trim();
        } else {
            BACKFILL_JOINS.incr();
        }
        if hoisted {
            BACKFILL_HOISTS.incr();
        }
        Placement {
            round: chosen,
            opened,
            hoisted,
        }
    }

    /// Rounds opened so far.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Whether the backfill holds no round.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Writes the rounds into `out`, replacing its contents: the members in
    /// round order, in placement order within a round (a stable counting
    /// sort on the round tags).
    fn sort_into(&self, out: &mut FlatRounds) {
        let FlatRounds { moves, ends } = out;
        // `ends` first holds each round's start, the cursor its next member
        // is written at; once every member is placed it holds the ends.
        ends.clear();
        let mut at = 0usize;
        ends.extend(self.rounds.iter().map(|slot| {
            let start = at;
            at += slot.len as usize;
            start
        }));
        moves.clear();
        if let Some(&(_, first)) = self.members.first() {
            moves.resize(self.members.len(), first);
        }
        for &(r, m) in &self.members {
            let cursor = &mut ends[r as usize];
            moves[*cursor] = m;
            *cursor += 1;
        }
    }

    /// The rounds built so far, each round's moves in order. They stay in a
    /// buffer the next call reuses; the backfill must be
    /// [`reset`](Self::reset) before it places another hop.
    pub fn drain_rounds(&mut self) -> impl Iterator<Item = &[ShuttleMove]> + '_ {
        let mut out = std::mem::take(&mut self.drained);
        self.sort_into(&mut out);
        self.drained = out;
        self.drained.iter()
    }

    /// Consumes the backfill, returning its rounds flat.
    pub fn into_flat(self) -> FlatRounds {
        let mut out = FlatRounds {
            moves: Vec::with_capacity(self.members.len()),
            ends: Vec::with_capacity(self.rounds.len()),
        };
        self.sort_into(&mut out);
        out
    }

    /// Consumes the backfill, returning each round's moves in order.
    #[cfg(test)]
    fn into_rounds(self) -> Vec<Vec<ShuttleMove>> {
        self.into_flat()
            .iter()
            .map(<[ShuttleMove]>::to_vec)
            .collect()
    }

    /// Rounds whose occupancy rows are still stored, counting the
    /// "after the last round" row.
    #[cfg(test)]
    fn retained_rows(&self) -> usize {
        self.occ_before.len() / self.num_traps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_machine::IonId;

    fn mv(ion: u32, from: u32, to: u32) -> ShuttleMove {
        ShuttleMove {
            ion: IonId(ion),
            from: TrapId(from),
            to: TrapId(to),
        }
    }

    fn rules(credit: CreditRule) -> BackfillRules {
        BackfillRules {
            credit,
            share_only: false,
            window: usize::MAX,
        }
    }

    #[test]
    fn credit_rule_splits_full_trap_pipelines() {
        // Trap 1 full (cap 2): ion 1 leaves it while ion 0 enters. With
        // departure credit both share round 0; without, the arrival must
        // wait for round 1.
        for (credit, expect_rounds) in [(CreditRule::DepartureCredit, 1), (CreditRule::NoCredit, 2)]
        {
            let mut bf = RoundBackfill::new(3, 2, vec![1, 2, 1], rules(credit));
            bf.place(mv(1, 1, 2));
            bf.place(mv(0, 0, 1));
            assert_eq!(bf.into_rounds().len(), expect_rounds, "{credit:?}");
        }
    }

    #[test]
    fn gate_fence_blocks_joins_and_marks_hoists() {
        let mut bf = RoundBackfill::new(4, 4, vec![1; 4], rules(CreditRule::NoCredit));
        let p0 = bf.place(mv(0, 0, 1));
        assert!(p0.opened && !p0.hoisted);
        // A gate in trap 3 fences trap 3 but not the 1→2 corridor...
        bf.note_gate(TrapId(3));
        let p1 = bf.place(mv(1, 1, 2));
        assert_eq!(p1.round, 0, "trap-disjoint hop still joins round 0");
        assert!(p1.hoisted, "and counts as hoisted across the gate");
        // ...while a hop touching trap 3 must open a new round.
        let p2 = bf.place(mv(2, 3, 2));
        assert!(p2.opened && !p2.hoisted);
        assert_eq!(p2.round, 1);
    }

    #[test]
    fn per_ion_order_and_segments_are_respected() {
        // Trap 0 holds both ions 0 and 3.
        let mut bf = RoundBackfill::new(4, 4, vec![2, 1, 1, 1], rules(CreditRule::DepartureCredit));
        assert_eq!(bf.place(mv(0, 0, 1)).round, 0);
        // Same ion again: strictly after its previous round.
        assert_eq!(bf.place(mv(0, 1, 2)).round, 1);
        // Same segment as round 0: also pushed later.
        assert_eq!(bf.place(mv(3, 0, 1)).round, 1);
        assert_eq!(bf.num_rounds(), 2);
    }

    #[test]
    fn capacity_near_u32_max_does_not_wrap() {
        // At cap u32::MAX a credited sum `cap + departures` overflows
        // u32; every trap has room, so only the round rules (segments,
        // one split and one merge per trap) decide where hops go.
        for credit in [CreditRule::DepartureCredit, CreditRule::NoCredit] {
            let mut bf = RoundBackfill::new(4, u32::MAX, vec![2, 1, 1, 1], rules(credit));
            assert_eq!(bf.place(mv(0, 0, 1)).round, 0);
            assert_eq!(bf.place(mv(1, 2, 3)).round, 0);
            assert_eq!(bf.place(mv(2, 1, 0)).round, 1, "{credit:?}");
            assert_eq!(bf.place(mv(3, 3, 2)).round, 1, "{credit:?}");
            assert_eq!(bf.into_rounds().len(), 2);
        }
    }

    #[test]
    fn bounded_window_keeps_bounded_rows() {
        // Two ions hop round 16 traps: per-ion order opens a round for
        // every other hop, so the rounds outgrow the window many times
        // over.
        let window = 96;
        let mut bf = RoundBackfill::new(
            16,
            4,
            {
                let mut occ = vec![1; 16];
                occ[0] = 2;
                occ
            },
            BackfillRules {
                credit: CreditRule::NoCredit,
                share_only: false,
                window,
            },
        );
        let mut at = [0u32, 0];
        for i in 0..20_000u32 {
            let ion = i % 2;
            let from = at[ion as usize];
            let to = (from + 1 + ion) % 16;
            at[ion as usize] = to;
            bf.place(mv(ion, from, to));
            assert!(bf.retained_rows() <= 2 * (window + 1) + 64);
        }
        assert!(bf.num_rounds() > 50 * window, "trimming fired many times");
    }

    #[test]
    fn window_bounds_the_scan() {
        let mut bf = RoundBackfill::new(
            4,
            4,
            vec![1; 4],
            BackfillRules {
                credit: CreditRule::NoCredit,
                share_only: false,
                window: 1,
            },
        );
        bf.place(mv(0, 0, 1));
        bf.place(mv(0, 1, 0)); // round 1 (per-ion order)
                               // 2→3 would fit round 0, but the window only reaches round 1,
                               // where it also fits.
        let p = bf.place(mv(2, 2, 3));
        assert_eq!(p.round, 1);
    }
}

/// The backfill as it was before flat storage: per-round snapshot `Vec`s,
/// a per-ion `HashMap` fence and a downstream check that filters the
/// whole arrival list. The flat version must place every hop identically.
#[cfg(test)]
mod oracle {
    use super::{BackfillRules, CreditRule, Placement};
    use qccd_machine::{IonId, ShuttleMove, TrapId};
    use std::collections::HashMap;

    struct Round {
        moves: Vec<ShuttleMove>,
        segments: Vec<(TrapId, TrapId)>,
        arrivals: Vec<u32>,
        departures: Vec<u32>,
        gates_at_creation: usize,
    }

    pub(super) struct OracleBackfill {
        rules: BackfillRules,
        cap: u32,
        rounds: Vec<Round>,
        occ_before: Vec<Vec<u32>>,
        arrival_rounds: Vec<Vec<usize>>,
        min_join: Vec<usize>,
        last_round_of_ion: HashMap<IonId, usize>,
        gates_noted: usize,
    }

    impl OracleBackfill {
        pub(super) fn new(
            num_traps: usize,
            cap: u32,
            occ0: Vec<u32>,
            rules: BackfillRules,
        ) -> Self {
            OracleBackfill {
                rules,
                cap,
                rounds: Vec::new(),
                occ_before: vec![occ0],
                arrival_rounds: vec![Vec::new(); num_traps],
                min_join: vec![0; num_traps],
                last_round_of_ion: HashMap::new(),
                gates_noted: 0,
            }
        }

        pub(super) fn note_gate(&mut self, trap: TrapId) {
            self.min_join[trap.index()] = self.rounds.len();
            self.gates_noted += 1;
        }

        fn credit(&self, r: usize, t: usize) -> u32 {
            match self.rules.credit {
                CreditRule::DepartureCredit => self.rounds[r].departures[t],
                CreditRule::NoCredit => 0,
            }
        }

        pub(super) fn place(&mut self, m: ShuttleMove) -> Placement {
            let seg = m.segment();
            let (fi, ti) = (m.from.index(), m.to.index());
            let lo = self.min_join[fi]
                .max(self.min_join[ti])
                .max(self.last_round_of_ion.get(&m.ion).map_or(0, |&r| r + 1))
                .max(self.rounds.len().saturating_sub(self.rules.window));
            let mut chosen = None;
            for r in lo..self.rounds.len() {
                let rb = &self.rounds[r];
                if rb.segments.contains(&seg)
                    || rb.departures[fi] > 0
                    || rb.arrivals[ti] > 0
                    || self.occ_before[r][ti] + 1 > self.cap + self.credit(r, ti)
                {
                    continue;
                }
                if self.rules.share_only
                    && rb.arrivals[fi] == 0
                    && rb.departures[ti] == 0
                    && !rb.moves.iter().any(|c| {
                        let (cf, ct) = (c.from.index(), c.to.index());
                        cf == fi || cf == ti || ct == fi || ct == ti
                    })
                {
                    continue;
                }
                let downstream_ok = self.arrival_rounds[ti]
                    .iter()
                    .filter(|&&s| s > r)
                    .all(|&s| self.occ_before[s][ti] + 2 <= self.cap + self.credit(s, ti));
                if downstream_ok {
                    chosen = Some(r);
                    break;
                }
            }
            let (chosen, opened) = match chosen {
                Some(r) => (r, false),
                None => {
                    let num_traps = self.arrival_rounds.len();
                    self.rounds.push(Round {
                        moves: Vec::new(),
                        segments: Vec::new(),
                        arrivals: vec![0; num_traps],
                        departures: vec![0; num_traps],
                        gates_at_creation: self.gates_noted,
                    });
                    self.occ_before
                        .push(self.occ_before.last().expect("seeded at new").clone());
                    (self.rounds.len() - 1, true)
                }
            };
            let hoisted = self.rounds[chosen].gates_at_creation < self.gates_noted;
            let rb = &mut self.rounds[chosen];
            rb.moves.push(m);
            rb.segments.push(seg);
            rb.departures[fi] += 1;
            rb.arrivals[ti] += 1;
            let list = &mut self.arrival_rounds[ti];
            let pos = list.partition_point(|&s| s < chosen);
            list.insert(pos, chosen);
            for occ in &mut self.occ_before[chosen + 1..] {
                occ[fi] -= 1;
                occ[ti] += 1;
            }
            self.last_round_of_ion.insert(m.ion, chosen);
            Placement {
                round: chosen,
                opened,
                hoisted,
            }
        }

        pub(super) fn into_rounds(self) -> Vec<Vec<ShuttleMove>> {
            self.rounds.into_iter().map(|r| r.moves).collect()
        }
    }
}

#[cfg(test)]
mod property_tests {
    use super::oracle::OracleBackfill;
    use super::*;
    use proptest::prelude::*;
    use qccd_machine::IonId;

    #[derive(Clone, Copy)]
    enum Event {
        Gate(TrapId),
        Hop(ShuttleMove),
    }

    /// A machine-consistent event stream: `(0, t, _)` notes a gate in
    /// trap `t`; `(_, i, k)` hops ion `i` to the `k`-th other trap, out of
    /// the trap it is in. Capacity is deliberately not respected, so the
    /// capacity checks see both outcomes. Returns the initial occupancies
    /// and the events.
    fn stream(
        num_traps: usize,
        placement: &[usize],
        events: &[(u32, usize, usize)],
    ) -> (Vec<u32>, Vec<Event>) {
        let mut trap_of: Vec<usize> = placement.iter().map(|&t| t % num_traps).collect();
        let mut occ0 = vec![0u32; num_traps];
        for &t in &trap_of {
            occ0[t] += 1;
        }
        let events = events
            .iter()
            .map(|&(kind, a, b)| {
                if kind == 0 {
                    return Event::Gate(TrapId((a % num_traps) as u32));
                }
                let ion = a % trap_of.len();
                let from = trap_of[ion];
                let to = (from + 1 + b % (num_traps - 1)) % num_traps;
                trap_of[ion] = to;
                Event::Hop(ShuttleMove {
                    ion: IonId(ion as u32),
                    from: TrapId(from as u32),
                    to: TrapId(to as u32),
                })
            })
            .collect();
        (occ0, events)
    }

    fn rules_of(credit: bool, share_only: bool, window: usize) -> BackfillRules {
        BackfillRules {
            credit: if credit {
                CreditRule::DepartureCredit
            } else {
                CreditRule::NoCredit
            },
            share_only,
            window,
        }
    }

    /// Feeds `events` to the flat backfill and the oracle side by side:
    /// every placement and the final rounds must agree, and a bounded
    /// window must keep at most `window + 1 + max(window, 64)` rows.
    fn check_against_oracle(
        num_traps: usize,
        cap: u32,
        rules: BackfillRules,
        occ0: Vec<u32>,
        events: &[Event],
    ) -> Result<(), String> {
        let mut flat = RoundBackfill::new(num_traps, cap, occ0.clone(), rules);
        let mut oracle = OracleBackfill::new(num_traps, cap, occ0, rules);
        for &ev in events {
            match ev {
                Event::Gate(trap) => {
                    flat.note_gate(trap);
                    oracle.note_gate(trap);
                }
                Event::Hop(m) => prop_assert_eq!(flat.place(m), oracle.place(m)),
            }
            if rules.window != usize::MAX {
                prop_assert!(flat.retained_rows() <= rules.window + 1 + rules.window.max(64));
            }
        }
        prop_assert_eq!(flat.into_rounds(), oracle.into_rounds());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn flat_backfill_matches_the_oracle(
            num_traps in 2usize..7,
            cap in 1u32..6,
            placement in proptest::collection::vec(0usize..8, 1..24),
            credit in any::<bool>(),
            share_only in any::<bool>(),
            window in 0usize..4,
            events in proptest::collection::vec((0u32..5, 0usize..64, 0usize..8), 0..160),
        ) {
            let rules = rules_of(credit, share_only, [1, 4, 96, usize::MAX][window]);
            let (occ0, events) = stream(num_traps, &placement, &events);
            check_against_oracle(num_traps, cap, rules, occ0, &events)?;
        }

        /// Reset keeps only allocations: placing a stream after `reset`
        /// matches a fresh backfill over the same occupancies.
        #[test]
        fn reset_then_place_equals_fresh_then_place(
            num_traps in 2usize..7,
            cap in 1u32..6,
            placement in proptest::collection::vec(0usize..8, 1..24),
            credit in any::<bool>(),
            share_only in any::<bool>(),
            window in 0usize..4,
            before in proptest::collection::vec((0u32..5, 0usize..64, 0usize..8), 0..160),
            after in proptest::collection::vec((0u32..5, 0usize..64, 0usize..8), 0..160),
        ) {
            let rules = rules_of(credit, share_only, [1, 4, 96, usize::MAX][window]);
            let (occ_a, before) = stream(num_traps, &placement, &before);
            let shifted: Vec<usize> = placement.iter().map(|&t| t + 1).collect();
            let (occ_b, after) = stream(num_traps, &shifted, &after);
            let mut reused = RoundBackfill::new(num_traps, cap, occ_a, rules);
            for ev in before {
                match ev {
                    Event::Gate(trap) => reused.note_gate(trap),
                    Event::Hop(m) => {
                        reused.place(m);
                    }
                }
            }
            let _ = reused.drain_rounds().count();
            reused.reset(occ_b.iter().copied());
            let mut fresh = RoundBackfill::new(num_traps, cap, occ_b, rules);
            for ev in after {
                match ev {
                    Event::Gate(trap) => {
                        reused.note_gate(trap);
                        fresh.note_gate(trap);
                    }
                    Event::Hop(m) => prop_assert_eq!(reused.place(m), fresh.place(m)),
                }
            }
            prop_assert_eq!(reused.into_rounds(), fresh.into_rounds());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Streams long enough that the bounded windows drop stale rows
        /// many times over.
        #[test]
        fn long_windowed_streams_match_the_oracle(
            num_traps in 2usize..7,
            cap in 1u32..6,
            placement in proptest::collection::vec(0usize..8, 1..12),
            credit in any::<bool>(),
            share_only in any::<bool>(),
            window in 0usize..3,
            events in proptest::collection::vec((0u32..5, 0usize..64, 0usize..8), 1000..3000),
        ) {
            let rules = rules_of(credit, share_only, [1, 4, 96][window]);
            let (occ0, events) = stream(num_traps, &placement, &events);
            check_against_oracle(num_traps, cap, rules, occ0, &events)?;
        }
    }
}
