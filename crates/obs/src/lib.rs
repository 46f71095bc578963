//! Structured compile telemetry for the muzzle-shuttle workspace.
//!
//! Every perf argument in this repo used to rest on one end-to-end
//! `compile_seconds` stopwatch. This crate is the missing observability
//! layer: process-wide instrumentation that the whole pipeline threads
//! through, with three read-out surfaces:
//!
//! * **Spans** — [`span`] returns an RAII guard that times a named phase
//!   with the monotonic clock. Guards nest naturally (a `"flow"` span
//!   opened inside a `"batching"` span is its child), and the per-thread
//!   nesting is reconstructed from the recorded intervals, so both
//!   inclusive and *self* time per phase are available.
//! * **Counters / histograms** — [`Counter`] and [`Histogram`] are
//!   `static`-friendly atomics ([`Relaxed`](Ordering::Relaxed) increments,
//!   no locks), safe to bump from any thread. They self-register on first
//!   touch, so snapshots and trace exports see every counter the run
//!   actually used.
//! * **Structured events** — [`info`]/[`debug`] route diagnostics through
//!   one channel: printed to stderr when the process verbosity allows it,
//!   *and* recorded as Chrome-trace instant events when tracing is on.
//!
//! Exports: [`chrome_trace`] renders everything as Chrome trace-event JSON
//! (loadable in `chrome://tracing` / Perfetto), [`summary_table`] renders
//! the compact per-phase table, and [`phase_stats`] / [`counters`] expose
//! the raw aggregates for harnesses like `muzzle snapshot`. The
//! [`json`] module is the workspace's one JSON value type, shared by
//! these exports and every crate that writes or reads a JSON document.
//!
//! # The zero-overhead contract
//!
//! Instrumentation is **disabled by default** and disabled-mode cost on
//! the hot path is one `Relaxed` atomic load (plus its predictable
//! branch): [`span`] returns an inert guard without reading the clock,
//! [`Counter::add`] and [`Histogram::record`] return before touching
//! their atomics, and nothing allocates, locks, or syscalls. Call
//! [`enable`] to start recording. Crucially, instrumentation *observes,
//! never decides*: no compiler decision reads any of this state, so
//! compile results are bit-for-bit identical with telemetry on or off
//! (the `muzzle snapshot` harness asserts exactly that).
//!
//! # Example
//!
//! ```
//! use qccd_obs as obs;
//!
//! static WIDGETS: obs::Counter = obs::Counter::new("example.widgets");
//!
//! obs::enable();
//! {
//!     let _compile = obs::span("compile");
//!     let _scoring = obs::span("scoring");
//!     WIDGETS.incr();
//! }
//! assert_eq!(obs::counter_value("example.widgets"), 1);
//! let trace = obs::chrome_trace();
//! assert!(trace.contains("\"scoring\""));
//! obs::disable();
//! obs::reset();
//! ```

pub mod json;

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Global on/off switch. All hot-path guards read this once, `Relaxed`.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Process verbosity for [`info`]/[`debug`] (0 quiet, 1 info, 2 debug).
static VERBOSITY: AtomicU8 = AtomicU8::new(1);

/// Monotonic epoch all span timestamps are relative to (set at first
/// [`enable`]; exports rebase to the earliest recorded start anyway).
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Completed spans, pushed at guard drop (children before parents).
static SPANS: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());

/// Recorded instant events ([`info`]/[`debug`] with tracing on).
static EVENTS: Mutex<Vec<EventRec>> = Mutex::new(Vec::new());

/// Counters that have been touched at least once, registration order.
static COUNTERS: Mutex<Vec<&'static Counter>> = Mutex::new(Vec::new());

/// Histograms that have been touched at least once, registration order.
static HISTOGRAMS: Mutex<Vec<&'static Histogram>> = Mutex::new(Vec::new());

/// Next thread id to hand out (Chrome-trace `tid` values).
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Small per-thread id, assigned on this thread's first span/event.
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Turns recording on. Idempotent; sets the trace epoch on first call.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns recording off. Already-recorded data stays until [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// `true` while recording is on.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears recorded spans/events and zeroes every registered counter and
/// histogram. The enabled flag and verbosity are left as they are.
pub fn reset() {
    lock(&SPANS).clear();
    lock(&EVENTS).clear();
    for c in lock(&COUNTERS).iter() {
        c.value.store(0, Ordering::Relaxed);
    }
    for h in lock(&HISTOGRAMS).iter() {
        for b in &h.buckets {
            b.store(0, Ordering::Relaxed);
        }
        h.sum.store(0, Ordering::Relaxed);
        h.count.store(0, Ordering::Relaxed);
        h.max.store(0, Ordering::Relaxed);
    }
}

/// Acquires a state mutex, surviving poisoning (a panicking test thread
/// must not wedge telemetry for the rest of the process).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Nanoseconds since the trace epoch.
fn now_ns() -> u64 {
    let epoch = EPOCH.get().copied().unwrap_or_else(Instant::now);
    Instant::now().duration_since(epoch).as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One completed span, as recorded at guard drop.
#[derive(Debug, Clone, Copy)]
struct SpanRec {
    name: &'static str,
    tid: u64,
    start_ns: u64,
    end_ns: u64,
}

/// RAII guard returned by [`span`]; records the interval when dropped.
#[must_use = "a span guard times the scope it lives in; bind it to a variable"]
pub struct Span {
    start: Option<(&'static str, u64)>,
}

/// Opens a named phase span. When recording is off this is one `Relaxed`
/// load and the returned guard is inert (its drop does nothing).
#[inline]
pub fn span(name: &'static str) -> Span {
    if !is_enabled() {
        return Span { start: None };
    }
    Span {
        start: Some((name, now_ns())),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((name, start_ns)) = self.start.take() {
            let rec = SpanRec {
                name,
                tid: TID.with(|t| *t),
                start_ns,
                end_ns: now_ns(),
            };
            lock(&SPANS).push(rec);
        }
    }
}

// ---------------------------------------------------------------------------
// Counters and histograms
// ---------------------------------------------------------------------------

/// A process-wide monotonically-increasing counter.
///
/// Declare as a `static` and bump with [`incr`](Counter::incr) /
/// [`add`](Counter::add); increments are `Relaxed` atomics, so counting
/// from multiple threads is safe and lock-free. The counter registers
/// itself in the global snapshot on its first enabled touch.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// A new counter named `name` (dotted `crate.metric` by convention).
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Adds one. Disabled mode: one `Relaxed` load, nothing else.
    #[inline]
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// Adds `n`. Disabled mode: one `Relaxed` load, nothing else.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !is_enabled() {
            return;
        }
        if !self.registered.swap(true, Ordering::Relaxed) {
            lock(&COUNTERS).push(self);
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The counter's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two buckets a [`Histogram`] keeps.
const HISTOGRAM_BUCKETS: usize = 32;

/// A process-wide histogram over power-of-two buckets.
///
/// Bucket `i` counts samples `v` with `2^(i-1) < v <= 2^i` (bucket 0
/// counts zeros and ones); values past the last bucket clamp into it.
/// Like [`Counter`], recording is `Relaxed`-atomic and self-registering.
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
    max: AtomicU64,
    registered: AtomicBool,
}

impl Histogram {
    /// A new histogram named `name`.
    pub const fn new(name: &'static str) -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            name,
            buckets: [ZERO; HISTOGRAM_BUCKETS],
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            max: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Records one sample. Disabled mode: one `Relaxed` load, nothing else.
    #[inline]
    pub fn record(&'static self, v: u64) {
        if !is_enabled() {
            return;
        }
        if !self.registered.swap(true, Ordering::Relaxed) {
            lock(&HISTOGRAMS).push(self);
        }
        let bucket = (64 - u64::leading_zeros(v | 1) as usize - 1).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A point-in-time copy of this histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            name: self.name.to_owned(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one [`Histogram`].
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Histogram name.
    pub name: String,
    /// Per-bucket sample counts (bucket `i` ≈ values up to `2^i`).
    pub buckets: Vec<u64>,
    /// Sum of all recorded samples.
    pub sum: u64,
    /// Number of recorded samples.
    pub count: u64,
    /// Largest recorded sample (0 when empty) — the quantile clamp.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean recorded sample, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// The `q`-quantile (0 < q ≤ 1) as the inclusive upper bound of the
    /// power-of-two bucket holding the `⌈q·count⌉`-th smallest sample,
    /// clamped to the largest recorded sample, or 0 when empty. Bucket
    /// `i` holds `[2^i, 2^(i+1))` (bucket 0 also holds 0; the last bucket
    /// saturates), so the raw bound is `2^(i+1) − 1`; the clamp keeps the
    /// estimate from overstating the tail past any sample that actually
    /// occurred (a lone sample of 1000 reports 1000, not 1023).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return (((1u128 << (i + 1)) - 1) as f64).min(self.max as f64);
            }
        }
        // Unreachable when buckets/count are consistent; fall back to the
        // largest recorded sample.
        self.max as f64
    }

    /// Median sample (bucket upper bound, clamped to the recorded
    /// maximum), or 0 when empty.
    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    /// 99th-percentile sample (bucket upper bound, clamped to the
    /// recorded maximum), or 0 when empty.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

// ---------------------------------------------------------------------------
// Structured events (the verbosity channel)
// ---------------------------------------------------------------------------

/// How chatty [`info`]/[`debug`] are on stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verbosity {
    /// Nothing printed.
    Quiet,
    /// [`info`] printed (the default: progress lines).
    Info,
    /// [`info`] and [`debug`] printed.
    Debug,
}

/// Sets the process verbosity.
pub fn set_verbosity(v: Verbosity) {
    VERBOSITY.store(v as u8, Ordering::Relaxed);
}

/// The current process verbosity.
pub fn verbosity() -> Verbosity {
    match VERBOSITY.load(Ordering::Relaxed) {
        0 => Verbosity::Quiet,
        1 => Verbosity::Info,
        _ => Verbosity::Debug,
    }
}

/// One recorded instant event.
#[derive(Debug, Clone)]
struct EventRec {
    target: &'static str,
    message: String,
    tid: u64,
    ts_ns: u64,
}

fn emit_event(level: Verbosity, target: &'static str, msg: impl FnOnce() -> String) {
    let print = verbosity() >= level;
    // Debug events are recorded only when they are also printed: a hot
    // path may emit one per decision, and a `--profile` or `--trace` run
    // must not pay a format and the `EVENTS` lock for each of them.
    let record = is_enabled() && (level < Verbosity::Debug || print);
    if !print && !record {
        return;
    }
    let message = msg();
    if print {
        eprintln!("[{target}] {message}");
    }
    if record {
        let rec = EventRec {
            target,
            message,
            tid: TID.with(|t| *t),
            ts_ns: now_ns(),
        };
        lock(&EVENTS).push(rec);
    }
}

/// A progress-level diagnostic: printed at [`Verbosity::Info`] and above,
/// recorded as a trace instant event whenever recording is on. The
/// message closure only runs when one of the two sinks wants it.
pub fn info(target: &'static str, msg: impl FnOnce() -> String) {
    emit_event(Verbosity::Info, target, msg);
}

/// A debug-level diagnostic: printed only at [`Verbosity::Debug`], and
/// recorded as a trace instant event only then (when recording is on).
/// At lower verbosity the message closure never runs.
pub fn debug(target: &'static str, msg: impl FnOnce() -> String) {
    emit_event(Verbosity::Debug, target, msg);
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// Aggregate timing of one span name.
#[derive(Debug, Clone)]
pub struct PhaseStat {
    /// Span name.
    pub name: String,
    /// Completed spans with this name.
    pub count: usize,
    /// Inclusive time, µs (child spans counted inside their parents, so
    /// inclusive totals of nested phases overlap).
    pub total_us: f64,
    /// Self time, µs (inclusive minus time spent in child spans). Self
    /// times are disjoint and sum to at most the wall time.
    pub self_us: f64,
}

/// Per-thread span groups, each sorted parent-before-child.
fn spans_by_thread() -> Vec<Vec<SpanRec>> {
    let spans = lock(&SPANS).clone();
    let mut tids: Vec<u64> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    tids.into_iter()
        .map(|tid| {
            let mut group: Vec<SpanRec> = spans.iter().filter(|s| s.tid == tid).copied().collect();
            // Parents first: earlier start, or same start and later end.
            group.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.end_ns.cmp(&a.end_ns)));
            group
        })
        .collect()
}

/// Walks one thread's parent-first span list, calling `visit(span,
/// self_ns)` for each span in completion (child-first) order. RAII
/// guards guarantee proper nesting per thread, which this walk relies on.
fn walk_nesting(group: &[SpanRec], mut visit: impl FnMut(&SpanRec, u64)) {
    struct Frame {
        idx: usize,
        child_ns: u64,
    }
    let mut stack: Vec<Frame> = Vec::new();
    let pop = |stack: &mut Vec<Frame>, visit: &mut dyn FnMut(&SpanRec, u64)| {
        let frame = stack.pop().expect("pop called on non-empty stack");
        let rec = &group[frame.idx];
        let inclusive = rec.end_ns - rec.start_ns;
        visit(rec, inclusive.saturating_sub(frame.child_ns));
        if let Some(parent) = stack.last_mut() {
            parent.child_ns += inclusive;
        }
    };
    for (idx, rec) in group.iter().enumerate() {
        while stack
            .last()
            .is_some_and(|f| group[f.idx].end_ns <= rec.start_ns)
        {
            pop(&mut stack, &mut visit);
        }
        stack.push(Frame { idx, child_ns: 0 });
    }
    while !stack.is_empty() {
        pop(&mut stack, &mut visit);
    }
}

/// Aggregate span timing per phase name, sorted by name, so the order
/// does not depend on wall-clock times.
pub fn phase_stats() -> Vec<PhaseStat> {
    let mut agg: Vec<(String, usize, u64, u64)> = Vec::new();
    for group in spans_by_thread() {
        walk_nesting(&group, |rec, self_ns| {
            let inclusive = rec.end_ns - rec.start_ns;
            match agg.iter_mut().find(|(n, ..)| n == rec.name) {
                Some((_, count, total, slf)) => {
                    *count += 1;
                    *total += inclusive;
                    *slf += self_ns;
                }
                None => agg.push((rec.name.to_owned(), 1, inclusive, self_ns)),
            }
        });
    }
    let mut stats: Vec<PhaseStat> = agg
        .into_iter()
        .map(|(name, count, total, slf)| PhaseStat {
            name,
            count,
            total_us: total as f64 / 1000.0,
            self_us: slf as f64 / 1000.0,
        })
        .collect();
    stats.sort_by(|a, b| a.name.cmp(&b.name));
    stats
}

/// Every registered counter as `(name, value)`, sorted by name.
pub fn counters() -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = lock(&COUNTERS)
        .iter()
        .map(|c| (c.name.to_owned(), c.value()))
        .collect();
    out.sort();
    out
}

/// The value of the registered counter named `name` (0 if never touched).
pub fn counter_value(name: &str) -> u64 {
    lock(&COUNTERS)
        .iter()
        .find(|c| c.name == name)
        .map_or(0, |c| c.value())
}

/// Snapshots of every registered histogram, sorted by name.
pub fn histograms() -> Vec<HistogramSnapshot> {
    let mut out: Vec<HistogramSnapshot> = lock(&HISTOGRAMS).iter().map(|h| h.snapshot()).collect();
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// Wall time covered by the recorded spans (earliest start to latest
/// end), µs. Zero when nothing was recorded.
pub fn wall_us() -> f64 {
    let spans = lock(&SPANS);
    let start = spans.iter().map(|s| s.start_ns).min();
    let end = spans.iter().map(|s| s.end_ns).max();
    match (start, end) {
        (Some(s), Some(e)) => (e - s) as f64 / 1000.0,
        _ => 0.0,
    }
}

// ---------------------------------------------------------------------------
// Exports
// ---------------------------------------------------------------------------

/// Renders everything recorded so far as Chrome trace-event JSON: spans
/// as strictly-nested `B`/`E` pairs per thread (the closing `E` also
/// carries the span's `dur`), [`info`]/[`debug`] diagnostics as `i`
/// instant events, and final counter values as `C` counter events.
/// Timestamps are µs rebased to the earliest recorded start. The output
/// loads in `chrome://tracing` and Perfetto.
pub fn chrome_trace() -> String {
    let groups = spans_by_thread();
    let events = lock(&EVENTS).clone();
    let base_ns = groups
        .iter()
        .flat_map(|g| g.iter().map(|s| s.start_ns))
        .chain(events.iter().map(|e| e.ts_ns))
        .min()
        .unwrap_or(0);
    let ts = |ns: u64| (ns - base_ns) as f64 / 1000.0;
    let mut rows: Vec<(f64, String)> = Vec::new();
    for group in &groups {
        // Emit B/E in timestamp order with LIFO closes: re-walk the
        // nesting so the pair stream is strictly nested by construction.
        struct Open {
            idx: usize,
        }
        let mut stack: Vec<Open> = Vec::new();
        let close = |rec: &SpanRec, rows: &mut Vec<(f64, String)>| {
            let mut row = String::from("{\"name\":");
            json::escape(rec.name, &mut row);
            let _ = write!(
                row,
                ",\"cat\":\"qccd\",\"ph\":\"E\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}}}",
                rec.tid,
                ts(rec.end_ns),
                (rec.end_ns - rec.start_ns) as f64 / 1000.0
            );
            rows.push((ts(rec.end_ns), row));
        };
        for (idx, rec) in group.iter().enumerate() {
            while stack
                .last()
                .is_some_and(|o| group[o.idx].end_ns <= rec.start_ns)
            {
                let open = stack.pop().expect("guarded by is_some_and");
                close(&group[open.idx], &mut rows);
            }
            let mut row = String::from("{\"name\":");
            json::escape(rec.name, &mut row);
            let _ = write!(
                row,
                ",\"cat\":\"qccd\",\"ph\":\"B\",\"pid\":1,\"tid\":{},\"ts\":{}}}",
                rec.tid,
                ts(rec.start_ns)
            );
            rows.push((ts(rec.start_ns), row));
            stack.push(Open { idx });
        }
        while let Some(open) = stack.pop() {
            close(&group[open.idx], &mut rows);
        }
    }
    for e in &events {
        let mut row = String::from("{\"name\":");
        json::escape(e.target, &mut row);
        let _ = write!(
            row,
            ",\"cat\":\"qccd\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{},\"args\":{{\"message\":",
            e.tid,
            ts(e.ts_ns)
        );
        json::escape(&e.message, &mut row);
        row.push_str("}}");
        rows.push((ts(e.ts_ns), row));
    }
    let end_ts = groups
        .iter()
        .flat_map(|g| g.iter().map(|s| ts(s.end_ns)))
        .fold(0.0f64, f64::max);
    for (name, value) in counters() {
        let mut row = String::from("{\"name\":");
        json::escape(&name, &mut row);
        let _ = write!(
            row,
            ",\"cat\":\"qccd\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":{end_ts},\"args\":{{\"value\":{value}}}}}"
        );
        rows.push((end_ts, row));
    }
    let mut out = String::from("[\n");
    let n = rows.len();
    for (i, (_, row)) in rows.into_iter().enumerate() {
        out.push_str("  ");
        out.push_str(&row);
        if i + 1 < n {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Renders the compact per-phase summary table (phases by self time, then
/// counters, then histogram means) as plain text.
pub fn summary_table() -> String {
    let wall = wall_us();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>9} {:>13} {:>13} {:>7}",
        "phase", "count", "total(ms)", "self(ms)", "self%"
    );
    let mut phases = phase_stats();
    phases.sort_by(|a, b| b.self_us.total_cmp(&a.self_us));
    for p in phases {
        let pct = if wall > 0.0 {
            100.0 * p.self_us / wall
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:<16} {:>9} {:>13.3} {:>13.3} {:>6.1}%",
            p.name,
            p.count,
            p.total_us / 1000.0,
            p.self_us / 1000.0,
            pct
        );
    }
    let _ = writeln!(out, "{:<16} {:>9} {:>13.3}", "wall", "", wall / 1000.0);
    let counters = counters();
    if !counters.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "{:<32} {:>12}", "counter", "value");
        for (name, value) in counters {
            let _ = writeln!(out, "{name:<32} {value:>12}");
        }
    }
    let hists = histograms();
    if !hists.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<32} {:>12} {:>12} {:>10} {:>10}",
            "histogram", "samples", "mean", "p50", "p99"
        );
        for h in hists {
            let _ = writeln!(
                out,
                "{:<32} {:>12} {:>12.2} {:>10} {:>10}",
                h.name,
                h.count,
                h.mean(),
                h.p50(),
                h.p99()
            );
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Lane traces (caller-supplied Gantt charts)
// ---------------------------------------------------------------------------

/// One bar on a Gantt lane: a named `[start_us, end_us)` interval on lane
/// `tid`. Used by [`chrome_trace_lanes`] to export caller-computed
/// schedules (e.g. a device timeline's per-trap activity) in the same
/// Chrome-trace dialect [`chrome_trace`] emits.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneSpan {
    /// The lane (Chrome-trace thread id) the bar renders on.
    pub tid: u64,
    /// Bar label.
    pub name: String,
    /// Bar start, µs.
    pub start_us: f64,
    /// Bar end, µs.
    pub end_us: f64,
}

/// One sample of a named per-lane counter series (e.g. a trap's motional
/// mode `n̄` over time), exported by [`chrome_trace_lanes_with_counters`]
/// as a Chrome-trace `C` row. Perfetto renders each `(tid, name)` series
/// as a step chart under the lane's track.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// The lane (Chrome-trace thread id) the series belongs to.
    pub tid: u64,
    /// Counter series name.
    pub name: String,
    /// Sample time, µs.
    pub ts_us: f64,
    /// Sample value.
    pub value: f64,
}

/// Renders caller-supplied lanes as Chrome trace-event JSON: one
/// `thread_name` metadata row per `(tid, label)` lane, then every span as
/// a `B`/`E` pair (the `E` carries `dur`), time-ordered with closes
/// emitted before same-timestamp opens so each lane's pair stream is
/// strictly nested. Within one lane spans must not overlap (they may
/// touch); spans with non-positive duration are skipped. Unlike
/// [`chrome_trace`] this reads no global state — it is a pure formatter
/// for externally-timed data such as per-trap schedule lanes.
pub fn chrome_trace_lanes(lanes: &[(u64, String)], spans: &[LaneSpan]) -> String {
    chrome_trace_lanes_with_counters(lanes, spans, &[])
}

/// [`chrome_trace_lanes`] plus counter series: every [`CounterSample`] is
/// appended as a `C` row in the same dialect [`chrome_trace`] uses
/// (`args.value` carries the sample). Counter rows sort after
/// same-timestamp span opens — a sample stamped at an operation's end
/// time reads as the value *after* that operation. Samples with
/// non-finite time or value are skipped (JSON has no spelling for them).
pub fn chrome_trace_lanes_with_counters(
    lanes: &[(u64, String)],
    spans: &[LaneSpan],
    counters: &[CounterSample],
) -> String {
    let mut rows: Vec<(f64, u8, u64, String)> =
        Vec::with_capacity(2 * spans.len() + lanes.len() + counters.len());
    for (tid, label) in lanes {
        let mut row = String::from("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":");
        let _ = write!(row, "{tid},\"ts\":0,\"args\":{{\"name\":");
        json::escape(label, &mut row);
        row.push_str("}}");
        rows.push((f64::NEG_INFINITY, 0, *tid, row));
    }
    for s in spans {
        let width = s.end_us - s.start_us;
        if width.is_nan() || width <= 0.0 {
            continue;
        }
        let mut open = String::from("{\"name\":");
        json::escape(&s.name, &mut open);
        let _ = write!(
            open,
            ",\"cat\":\"qccd\",\"ph\":\"B\",\"pid\":1,\"tid\":{},\"ts\":{}}}",
            s.tid, s.start_us
        );
        rows.push((s.start_us, 1, s.tid, open));
        let mut close = String::from("{\"name\":");
        json::escape(&s.name, &mut close);
        let _ = write!(
            close,
            ",\"cat\":\"qccd\",\"ph\":\"E\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}}}",
            s.tid,
            s.end_us,
            s.end_us - s.start_us
        );
        rows.push((s.end_us, 0, s.tid, close));
    }
    for c in counters {
        if !c.ts_us.is_finite() || !c.value.is_finite() {
            continue;
        }
        let mut row = String::from("{\"name\":");
        json::escape(&c.name, &mut row);
        let _ = write!(
            row,
            ",\"cat\":\"qccd\",\"ph\":\"C\",\"pid\":1,\"tid\":{},\"ts\":{},\"args\":{{\"value\":{}}}}}",
            c.tid, c.ts_us, c.value
        );
        rows.push((c.ts_us, 2, c.tid, row));
    }
    rows.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    let mut out = String::from("[\n");
    let n = rows.len();
    for (i, (_, _, _, row)) in rows.into_iter().enumerate() {
        out.push_str("  ");
        out.push_str(&row);
        if i + 1 < n {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// The whole crate is process-global state; tests serialize on this
    /// (surviving poisoning so one failure doesn't cascade).
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        let guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        disable();
        reset();
        guard
    }

    static T_COUNT: Counter = Counter::new("test.count");
    static T_CROSS: Counter = Counter::new("test.cross");
    static T_DISABLED: Counter = Counter::new("test.disabled");
    static T_HIST: Histogram = Histogram::new("test.hist");

    #[test]
    fn counters_count_and_snapshot() {
        let _g = exclusive();
        enable();
        T_COUNT.incr();
        T_COUNT.add(4);
        assert_eq!(T_COUNT.value(), 5);
        assert_eq!(counter_value("test.count"), 5);
        assert!(counters().contains(&("test.count".to_owned(), 5)));
        reset();
        assert_eq!(counter_value("test.count"), 0);
        disable();
    }

    #[test]
    fn cross_thread_counts_aggregate() {
        let _g = exclusive();
        enable();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                thread::spawn(|| {
                    for _ in 0..1000 {
                        T_CROSS.incr();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter_value("test.cross"), 4000);
        disable();
    }

    #[test]
    fn disabled_mode_records_nothing() {
        let _g = exclusive();
        assert!(!is_enabled());
        T_DISABLED.incr();
        T_HIST.record(7);
        {
            let _s = span("ghost");
        }
        info("test", || "unprinted".to_owned());
        assert_eq!(counter_value("test.disabled"), 0);
        assert!(phase_stats().is_empty());
        assert_eq!(wall_us(), 0.0);
        let trace = chrome_trace();
        assert!(!trace.contains("ghost"));
    }

    #[test]
    fn nested_spans_nest_and_split_self_time() {
        let _g = exclusive();
        enable();
        {
            let _outer = span("outer");
            thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("inner");
                thread::sleep(std::time::Duration::from_millis(2));
            }
            {
                let _inner = span("inner");
            }
        }
        let stats = phase_stats();
        let outer = stats.iter().find(|p| p.name == "outer").unwrap();
        let inner = stats.iter().find(|p| p.name == "inner").unwrap();
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 2);
        assert!(outer.total_us >= inner.total_us, "inner nests inside outer");
        assert!(
            outer.self_us <= outer.total_us - inner.total_us + 1.0,
            "outer self time excludes the inner spans: {stats:?}"
        );
        disable();
    }

    #[test]
    fn histogram_buckets_and_mean() {
        let _g = exclusive();
        enable();
        for v in [0, 1, 2, 3, 8, 1000] {
            T_HIST.record(v);
        }
        let snap = histograms()
            .into_iter()
            .find(|h| h.name == "test.hist")
            .unwrap();
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum, 1014);
        assert_eq!(snap.buckets[0], 2, "0 and 1 share the first bucket");
        assert_eq!(snap.buckets[1], 2, "2 and 3");
        assert_eq!(snap.buckets[3], 1, "8");
        assert_eq!(snap.buckets[9], 1, "1000 < 1024");
        assert!((snap.mean() - 169.0).abs() < 1.0);
        disable();
    }

    #[test]
    fn verbosity_gates_stderr_but_not_trace() {
        let _g = exclusive();
        let before = verbosity();
        set_verbosity(Verbosity::Quiet);
        enable();
        info("test", || "recorded while quiet".to_owned());
        let trace = chrome_trace();
        assert!(trace.contains("recorded while quiet"));
        disable();
        set_verbosity(before);
    }

    #[test]
    fn debug_events_are_recorded_only_when_printed() {
        let _g = exclusive();
        let before = verbosity();
        set_verbosity(Verbosity::Info);
        enable();
        let mut ran = false;
        debug("test", || {
            ran = true;
            "hot-path debug event".to_owned()
        });
        assert!(!ran, "recording alone must not format a debug event");
        assert!(!chrome_trace().contains("hot-path debug event"));
        set_verbosity(Verbosity::Debug);
        debug("test", || "printed debug event".to_owned());
        assert!(chrome_trace().contains("printed debug event"));
        disable();
        set_verbosity(before);
    }

    /// A minimal JSON reader for the round-trip test: tokenizes the trace
    /// into event objects' (key, raw value) pairs.
    fn parse_events(trace: &str) -> Vec<Vec<(String, String)>> {
        let trimmed = trace.trim();
        assert!(trimmed.starts_with('[') && trimmed.ends_with(']'), "array");
        trimmed
            .lines()
            .filter(|l| l.trim_start().starts_with('{'))
            .map(|line| {
                let line = line.trim().trim_end_matches(',');
                assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
                let body = &line[1..line.len() - 1];
                // Split on top-level commas (args objects nest one deep).
                let mut pairs = Vec::new();
                let mut depth = 0;
                let mut in_str = false;
                let mut field = String::new();
                for c in body.chars().chain(std::iter::once(',')) {
                    match c {
                        '"' => {
                            in_str = !in_str;
                            field.push(c);
                        }
                        '{' | '[' if !in_str => {
                            depth += 1;
                            field.push(c);
                        }
                        '}' | ']' if !in_str => {
                            depth -= 1;
                            field.push(c);
                        }
                        ',' if !in_str && depth == 0 => {
                            let (k, v) = field.split_once(':').expect("key: value");
                            pairs
                                .push((k.trim().trim_matches('"').to_owned(), v.trim().to_owned()));
                            field.clear();
                        }
                        c => field.push(c),
                    }
                }
                pairs
            })
            .collect()
    }

    #[test]
    fn chrome_trace_round_trips_with_strict_nesting() {
        let _g = exclusive();
        enable();
        {
            let _a = span("alpha");
            {
                let _b = span("beta");
                T_COUNT.incr();
            }
            {
                let _c = span("gamma");
            }
        }
        info("note", || "one instant".to_owned());
        let trace = chrome_trace();
        let events = parse_events(&trace);
        assert!(!events.is_empty());
        let get = |ev: &[(String, String)], key: &str| {
            ev.iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("missing {key}: {ev:?}"))
        };
        let mut stack: Vec<String> = Vec::new();
        let mut last_ts = f64::NEG_INFINITY;
        let mut b_count = 0;
        for ev in &events {
            // Schema: every event has pid/tid/ts/ph; E events carry dur.
            let ph = get(ev, "ph");
            assert_eq!(get(ev, "pid"), "1");
            get(ev, "tid");
            let ts: f64 = get(ev, "ts").parse().expect("numeric ts");
            match ph.as_str() {
                "\"B\"" => {
                    assert!(ts >= last_ts, "B/E stream is time-ordered");
                    last_ts = ts;
                    stack.push(get(ev, "name"));
                    b_count += 1;
                }
                "\"E\"" => {
                    assert!(ts >= last_ts, "B/E stream is time-ordered");
                    last_ts = ts;
                    let dur: f64 = get(ev, "dur").parse().expect("numeric dur");
                    assert!(dur >= 0.0);
                    let open = stack.pop().expect("E closes an open B");
                    assert_eq!(open, get(ev, "name"), "strict LIFO nesting");
                }
                "\"i\"" | "\"C\"" => {}
                other => panic!("unexpected ph {other}"),
            }
        }
        assert!(stack.is_empty(), "every B is closed");
        assert_eq!(b_count, 3, "alpha, beta, gamma");
        assert!(
            events
                .iter()
                .any(|ev| get(ev, "ph") == "\"C\"" && get(ev, "name") == "\"test.count\""),
            "counters export as C events"
        );
        assert!(trace.contains("one instant"));
        disable();
    }

    #[test]
    fn summary_table_lists_phases_and_counters() {
        let _g = exclusive();
        enable();
        {
            let _s = span("tabled");
            T_COUNT.add(3);
        }
        let table = summary_table();
        assert!(table.contains("tabled"));
        assert!(table.contains("test.count"));
        assert!(table.contains("wall"));
        disable();
    }

    #[test]
    fn phases_list_by_name_and_the_table_by_self_time() {
        let _g = exclusive();
        enable();
        {
            let _s = span("zz-slow");
            thread::sleep(std::time::Duration::from_millis(3));
        }
        {
            let _s = span("aa-fast");
        }
        let names: Vec<String> = phase_stats().into_iter().map(|p| p.name).collect();
        assert_eq!(names, ["aa-fast", "zz-slow"]);
        let table = summary_table();
        let (slow, fast) = (
            table.find("zz-slow").unwrap(),
            table.find("aa-fast").unwrap(),
        );
        assert!(
            slow < fast,
            "the table leads with the slowest phase:\n{table}"
        );
        disable();
    }

    #[test]
    fn histogram_quantiles_track_bucket_bounds() {
        let _g = exclusive();
        enable();
        // 97 samples land in bucket 1 ([2, 4), bound 3), 3 in bucket 9
        // ([512, 1024), raw bound 1023 clamped to the recorded max 1000):
        // the median sits in the low bucket, the p99 in the high one.
        for _ in 0..97 {
            T_HIST.record(3);
        }
        for _ in 0..3 {
            T_HIST.record(1000);
        }
        let snap = histograms()
            .into_iter()
            .find(|h| h.name == "test.hist")
            .expect("recorded histogram listed");
        assert_eq!(snap.count, 100);
        assert_eq!(snap.max, 1000);
        assert_eq!(snap.p50(), 3.0);
        assert_eq!(snap.quantile(0.97), 3.0);
        assert_eq!(snap.p99(), 1000.0);
        assert_eq!(snap.quantile(1.0), 1000.0);
        let table = summary_table();
        assert!(table.contains("p50"), "summary table lists percentiles");
        assert!(table.contains("1000"), "p99 column shows the recorded max");
        assert!(!table.contains("1023"), "bucket bound never leaks past max");
        disable();
    }

    /// The bug this clamps: a single sample of 1000 used to report p99 =
    /// 1023 (the power-of-two bucket upper bound). Percentiles must never
    /// exceed a value that was actually recorded.
    #[test]
    fn quantiles_never_exceed_the_recorded_maximum() {
        let _g = exclusive();
        enable();
        T_HIST.record(1000);
        let snap = histograms()
            .into_iter()
            .find(|h| h.name == "test.hist")
            .expect("recorded histogram listed");
        assert_eq!(snap.p50(), 1000.0);
        assert_eq!(snap.p99(), 1000.0);
        assert_eq!(snap.quantile(1.0), 1000.0);
        disable();
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let snap = HistogramSnapshot {
            name: "empty".to_owned(),
            buckets: vec![0; 32],
            sum: 0,
            count: 0,
            max: 0,
        };
        assert_eq!(snap.p50(), 0.0);
        assert_eq!(snap.p99(), 0.0);
        let unit = HistogramSnapshot {
            name: "unit".to_owned(),
            buckets: {
                let mut b = vec![0u64; 32];
                b[0] = 5;
                b
            },
            sum: 5,
            count: 5,
            max: 1,
        };
        assert_eq!(unit.p50(), 1.0, "bucket 0 bound is 1");
    }

    #[test]
    fn lane_trace_emits_labeled_strictly_nested_lanes() {
        // Pure formatter: no global state involved, no enable() needed.
        let lanes = vec![(0u64, "trap 0".to_owned()), (1u64, "trap 1".to_owned())];
        let spans = vec![
            LaneSpan {
                tid: 0,
                name: "g0".to_owned(),
                start_us: 0.0,
                end_us: 100.0,
            },
            LaneSpan {
                tid: 1,
                name: "hop".to_owned(),
                start_us: 100.0,
                end_us: 265.5,
            },
            LaneSpan {
                tid: 0,
                name: "g1".to_owned(),
                start_us: 100.0,
                end_us: 150.0,
            },
            LaneSpan {
                tid: 0,
                name: "degenerate".to_owned(),
                start_us: 5.0,
                end_us: 5.0,
            },
        ];
        let trace = chrome_trace_lanes(&lanes, &spans);
        assert!(!trace.contains("degenerate"), "zero-width bars skipped");
        assert!(trace.contains("trap 1"), "lane labels exported");
        let events = parse_events(&trace);
        let get = |ev: &[(String, String)], key: &str| {
            ev.iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("missing {key}: {ev:?}"))
        };
        let mut stacks: std::collections::HashMap<String, Vec<String>> =
            std::collections::HashMap::new();
        let mut b_count = 0;
        for ev in &events {
            // Same schema the CI validator checks: pid/tid/ts/ph/name on
            // every row, dur on closes, strict per-tid LIFO.
            assert_eq!(get(ev, "pid"), "1");
            get(ev, "ts");
            let tid = get(ev, "tid");
            match get(ev, "ph").as_str() {
                "\"B\"" => {
                    stacks.entry(tid).or_default().push(get(ev, "name"));
                    b_count += 1;
                }
                "\"E\"" => {
                    let dur: f64 = get(ev, "dur").parse().expect("numeric dur");
                    assert!(dur > 0.0);
                    let open = stacks.get_mut(&tid).and_then(Vec::pop);
                    assert_eq!(open.expect("E closes an open B"), get(ev, "name"));
                }
                "\"M\"" => {}
                other => panic!("unexpected ph {other}"),
            }
        }
        assert!(stacks.values().all(Vec::is_empty), "every B is closed");
        assert_eq!(b_count, 3, "three real bars");
        // Same-timestamp close-then-open: trap 0's g0 E precedes its g1 B.
        let e_pos = trace.find("\"ph\":\"E\",\"pid\":1,\"tid\":0").unwrap();
        let b_pos = trace.find("\"g1\"").unwrap();
        assert!(e_pos < b_pos, "closes sort before same-ts opens");
    }

    #[test]
    fn lane_counters_export_as_schema_valid_c_rows() {
        let lanes = vec![(0u64, "trap 0".to_owned())];
        let spans = vec![LaneSpan {
            tid: 0,
            name: "gate".to_owned(),
            start_us: 0.0,
            end_us: 100.0,
        }];
        let counters = vec![
            CounterSample {
                tid: 0,
                name: "n̄ trap 0".to_owned(),
                ts_us: 0.0,
                value: 0.5,
            },
            CounterSample {
                tid: 0,
                name: "n̄ trap 0".to_owned(),
                ts_us: 100.0,
                value: 1.25,
            },
            CounterSample {
                tid: 0,
                name: "dropped".to_owned(),
                ts_us: 50.0,
                value: f64::NAN,
            },
        ];
        let trace = chrome_trace_lanes_with_counters(&lanes, &spans, &counters);
        assert!(!trace.contains("dropped"), "non-finite samples skipped");
        assert_eq!(
            chrome_trace_lanes(&lanes, &spans),
            chrome_trace_lanes_with_counters(&lanes, &spans, &[]),
            "no counters means the plain lane export, byte for byte"
        );
        let events = parse_events(&trace);
        let get = |ev: &[(String, String)], key: &str| {
            ev.iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("missing {key}: {ev:?}"))
        };
        let mut stack: Vec<String> = Vec::new();
        let mut c_count = 0;
        for ev in &events {
            // The strict-nesting validator's schema: B/E stay LIFO per
            // lane; C rows carry args.value and never disturb the stack.
            assert_eq!(get(ev, "pid"), "1");
            get(ev, "ts");
            match get(ev, "ph").as_str() {
                "\"B\"" => stack.push(get(ev, "name")),
                "\"E\"" => {
                    assert_eq!(stack.pop().expect("E closes an open B"), get(ev, "name"));
                }
                "\"C\"" => {
                    let args = get(ev, "args");
                    assert!(args.contains("\"value\""), "{args}");
                    c_count += 1;
                }
                "\"M\"" => {}
                other => panic!("unexpected ph {other}"),
            }
        }
        assert!(stack.is_empty());
        assert_eq!(c_count, 2, "both finite samples exported");
        // The sample stamped at the gate's start sorts after the gate's
        // open: counters read as the value after same-ts events.
        let b_pos = trace.find("\"ph\":\"B\"").unwrap();
        let first_c = trace.find("\"ph\":\"C\"").unwrap();
        assert!(first_c > b_pos, "same-ts counter sorts after the open");
    }
}
