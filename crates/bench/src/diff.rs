//! Snapshot comparison: the `muzzle snapshot` parity gate and the
//! schema-aware `muzzle diff`.
//!
//! The committed `BENCH.json` carries three kinds of leaves:
//!
//! * **quality metrics** (shuttle counts, makespans, fidelities, the
//!   suite-level acceptance flags) — the values this repo pins
//!   bit-for-bit; any drift in the *bad* direction is a regression.
//! * **deterministic observability** (the `profile` subtree's work
//!   counters and histograms, the `explain` and `fidelity`
//!   attributions) — the same on every run of the same code.
//! * **wall-clock figures** (`compile_seconds*`, `wall_us`, the
//!   `profile.phases` times, the `jobs` subtree) — machine-dependent
//!   noise.
//!
//! [`snapshot_mismatches`] is the gate: after stripping the wall-clock
//! keys ([`is_wall_clock_key`]) two snapshots of the same code must be
//! equal bit for bit, observability included, and any difference is
//! named by path. The `profile.phases` times are stripped, but each
//! benchmark's phase names and each phase's `count` are still compared:
//! a phase a change adds, renames, drops or enters a different number of
//! times must be re-pinned on purpose.
//!
//! [`diff_snapshots`] is the review aid: it walks two parsed documents in
//! parallel, classifies every shared numeric/boolean leaf by the
//! direction inferred from its key name (observability and wall-clock
//! leaves are informational), and returns a [`DiffReport`] renderable as
//! markdown or JSON. `muzzle diff OLD NEW` exits non-zero iff the
//! report contains a quality regression.

use qccd_obs::json::{strip_keys, Json};

/// How a changed metric is judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffClass {
    /// A quality metric moved in the bad direction.
    Regression,
    /// A quality metric moved in the good direction.
    Improvement,
    /// Equal within the tolerance.
    Unchanged,
    /// Wall-clock / instrumentation data: reported, never gating.
    Informational,
}

impl DiffClass {
    /// Stable lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            DiffClass::Regression => "regression",
            DiffClass::Improvement => "improvement",
            DiffClass::Unchanged => "unchanged",
            DiffClass::Informational => "informational",
        }
    }
}

/// One numeric/boolean leaf present in both snapshots.
#[derive(Debug, Clone)]
pub struct MetricDiff {
    /// Dotted path, benchmarks keyed by name (e.g.
    /// `benchmarks[QAOA].clock.clock_timed_makespan_us`).
    pub path: String,
    /// Value in the old snapshot (booleans as 0/1).
    pub old: f64,
    /// Value in the new snapshot.
    pub new: f64,
    /// The judgement.
    pub class: DiffClass,
}

impl MetricDiff {
    /// Relative change in percent (0 when both sides are 0).
    pub fn percent(&self) -> f64 {
        if self.old == self.new {
            return 0.0;
        }
        let base = self.old.abs().max(self.new.abs());
        if base == 0.0 {
            0.0
        } else {
            100.0 * (self.new - self.old) / base
        }
    }
}

/// The full comparison of two snapshots.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Every shared numeric/boolean leaf, in document order.
    pub metrics: Vec<MetricDiff>,
    /// Paths present only in the new snapshot.
    pub added: Vec<String>,
    /// Paths present only in the old snapshot.
    pub removed: Vec<String>,
    /// String leaves that changed: `(path, old, new)`.
    pub strings_changed: Vec<(String, String, String)>,
}

impl DiffReport {
    /// Count of metrics with the given class.
    pub fn count(&self, class: DiffClass) -> usize {
        self.metrics.iter().filter(|m| m.class == class).count()
    }

    /// The regression paths — the CI gate's exit condition.
    pub fn regressions(&self) -> Vec<&MetricDiff> {
        self.metrics
            .iter()
            .filter(|m| m.class == DiffClass::Regression)
            .collect()
    }

    /// Markdown rendering: a summary line, a table of every changed
    /// metric (unchanged rows are counted, not listed), and the
    /// structural deltas.
    pub fn to_markdown(&self, old_name: &str, new_name: &str) -> String {
        let mut out = format!("## BENCH diff — `{old_name}` → `{new_name}`\n\n");
        out.push_str(&format!(
            "{} metrics compared: {} unchanged, {} improvements, \
             {} regressions, {} informational changes\n\n",
            self.metrics.len(),
            self.count(DiffClass::Unchanged),
            self.count(DiffClass::Improvement),
            self.count(DiffClass::Regression),
            self.metrics
                .iter()
                .filter(|m| m.class == DiffClass::Informational && m.old != m.new)
                .count(),
        ));
        let changed: Vec<&MetricDiff> = self
            .metrics
            .iter()
            .filter(|m| m.class != DiffClass::Unchanged && m.old != m.new)
            .collect();
        if changed.is_empty() {
            out.push_str("no metric changed.\n");
        } else {
            out.push_str("| metric | old | new | Δ% | class |\n");
            out.push_str("|--------|-----|-----|----|-------|\n");
            for m in &changed {
                out.push_str(&format!(
                    "| `{}` | {} | {} | {:+.2}% | {} |\n",
                    m.path,
                    m.old,
                    m.new,
                    m.percent(),
                    m.class.label()
                ));
            }
        }
        for (label, paths) in [("added", &self.added), ("removed", &self.removed)] {
            if !paths.is_empty() {
                out.push_str(&format!("\n{label} keys:\n"));
                for p in paths {
                    out.push_str(&format!("- `{p}`\n"));
                }
            }
        }
        if !self.strings_changed.is_empty() {
            out.push_str("\nchanged strings:\n");
            for (p, old, new) in &self.strings_changed {
                out.push_str(&format!("- `{p}`: `{old}` → `{new}`\n"));
            }
        }
        out
    }

    /// JSON rendering: counts plus every non-unchanged metric.
    pub fn to_json(&self, old_name: &str, new_name: &str) -> Json {
        Json::obj(vec![
            ("old", Json::str(old_name)),
            ("new", Json::str(new_name)),
            ("metrics_compared", Json::int(self.metrics.len())),
            ("unchanged", Json::int(self.count(DiffClass::Unchanged))),
            (
                "improvements",
                Json::int(self.count(DiffClass::Improvement)),
            ),
            ("regressions", Json::int(self.count(DiffClass::Regression))),
            (
                "changes",
                Json::Arr(
                    self.metrics
                        .iter()
                        .filter(|m| m.class != DiffClass::Unchanged && m.old != m.new)
                        .map(|m| {
                            Json::obj(vec![
                                ("path", Json::str(&m.path)),
                                ("old", Json::Num(m.old)),
                                ("new", Json::Num(m.new)),
                                ("percent", Json::Num(m.percent())),
                                ("class", Json::str(m.class.label())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "added_keys",
                Json::Arr(self.added.iter().map(Json::str).collect()),
            ),
            (
                "removed_keys",
                Json::Arr(self.removed.iter().map(Json::str).collect()),
            ),
        ])
    }
}

/// Which direction is "better" for a metric, inferred from its key name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// Lower is better (shuttles, makespans, depths, idle).
    Lower,
    /// Higher is better (fidelity, reduction deltas, win counts, flags).
    Higher,
    /// Identity metric (workload descriptors): any change is a regression.
    Exact,
    /// Wall-clock / instrumentation: never gates.
    Informational,
}

/// Classifies a leaf path. Checked in priority order: the informational
/// subtrees first (their members often *contain* quality-looking words
/// like `total_us`), then higher-is-better names, then lower-is-better
/// names; anything unrecognised is an identity metric so schema drift
/// fails loudly instead of passing silently.
fn direction(path: &str) -> Direction {
    let last = path.rsplit('.').next().unwrap_or(path);
    if path.contains(".profile.")
        || path.ends_with(".profile")
        || path.contains(".explain.")
        || path.ends_with(".explain")
        || path.contains(".fidelity.")
        || path.ends_with(".fidelity")
        || last.starts_with("compile_seconds")
        || last == "wall_us"
    {
        return Direction::Informational;
    }
    const HIGHER: [&str; 10] = [
        "fidelity",
        "improvement",
        "improved",
        "delta",
        "delta_percent",
        "hit_rate",
        "win",
        "leq",
        "wins",
        "_count",
    ];
    if HIGHER.iter().any(|n| last.contains(n)) || path.starts_with("all_") {
        return Direction::Higher;
    }
    const LOWER: [&str; 9] = [
        "shuttles",
        "makespan",
        "depth",
        "zone_moves",
        "junction",
        "ties",
        "hops",
        "idle",
        "busy",
    ];
    if LOWER.iter().any(|n| last.contains(n)) {
        return Direction::Lower;
    }
    Direction::Exact
}

/// `depth_delta` contains "delta" (higher better) but is genuinely
/// higher-better (shuttles saved by concurrency), and `batched_layers`/
/// `batched_hops` contain "hops" yet describe how the result was reached,
/// not how good it is — the generic table above already classifies the
/// former correctly and the latter as Lower, which is acceptable: a
/// batching change shows up as *some* class rather than hiding. What must
/// not happen is a quality metric landing in Informational; the tests pin
/// the load-bearing names.
fn classify(path: &str, old: f64, new: f64, rel_tol: f64) -> DiffClass {
    let dir = direction(path);
    if dir == Direction::Informational {
        return DiffClass::Informational;
    }
    // Non-finite leaves poison every comparison below (NaN compares false,
    // so a NaN quality metric used to fall through to `Unchanged` via the
    // else-arms, and ±inf could read as an "improvement"). A poisoned
    // snapshot must gate: only bitwise-identical non-finite pairs pass.
    if !old.is_finite() || !new.is_finite() {
        return if old.to_bits() == new.to_bits() {
            DiffClass::Unchanged
        } else {
            DiffClass::Regression
        };
    }
    let tol = rel_tol * old.abs().max(new.abs());
    if (new - old).abs() <= tol || new == old {
        return DiffClass::Unchanged;
    }
    match dir {
        Direction::Lower => {
            if new < old {
                DiffClass::Improvement
            } else {
                DiffClass::Regression
            }
        }
        Direction::Higher => {
            if new > old {
                DiffClass::Improvement
            } else {
                DiffClass::Regression
            }
        }
        Direction::Exact => DiffClass::Regression,
        Direction::Informational => unreachable!("returned above"),
    }
}

fn leaf_num(value: &Json) -> Option<f64> {
    match value {
        Json::Num(n) => Some(*n),
        Json::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
        // Non-finite numbers serialize as `null`; surface them as NaN so
        // they reach `classify`'s non-finite gate instead of reading as a
        // non-gating structural (type) change.
        Json::Null => Some(f64::NAN),
        _ => None,
    }
}

/// Path segment for an array element: benchmark-style objects are keyed
/// by their `name` field so rows stay addressable when reordered.
fn element_segment(item: &Json, index: usize) -> String {
    match name_of(item) {
        Some(name) => format!("[{name}]"),
        None => format!("[{index}]"),
    }
}

/// The `key` field of an object element.
fn field<'a>(item: &'a Json, key: &str) -> Option<&'a Json> {
    let Json::Obj(pairs) = item else {
        return None;
    };
    pairs.iter().find_map(|(k, v)| (k == key).then_some(v))
}

/// The `name` field of an object element.
fn name_of(item: &Json) -> Option<&str> {
    match field(item, "name")? {
        Json::Str(name) => Some(name.as_str()),
        _ => None,
    }
}

fn join(path: &str, segment: &str) -> String {
    if path.is_empty() {
        segment.to_owned()
    } else if segment.starts_with('[') {
        format!("{path}{segment}")
    } else {
        format!("{path}.{segment}")
    }
}

fn walk(path: &str, old: &Json, new: &Json, rel_tol: f64, report: &mut DiffReport) {
    match (old, new) {
        (Json::Obj(old_pairs), Json::Obj(new_pairs)) => {
            for (k, ov) in old_pairs {
                match new_pairs.iter().find(|(nk, _)| nk == k) {
                    Some((_, nv)) => walk(&join(path, k), ov, nv, rel_tol, report),
                    None => report.removed.push(join(path, k)),
                }
            }
            for (k, _) in new_pairs {
                if !old_pairs.iter().any(|(ok, _)| ok == k) {
                    report.added.push(join(path, k));
                }
            }
        }
        (Json::Arr(old_items), Json::Arr(new_items)) => {
            for (i, ov) in old_items.iter().enumerate() {
                let seg = element_segment(ov, i);
                // Match by name when the element carries one, else by
                // position — snapshots keep stable row order either way.
                let matched = new_items
                    .iter()
                    .enumerate()
                    .find(|(j, nv)| element_segment(nv, *j) == seg)
                    .map(|(_, nv)| nv);
                match matched {
                    Some(nv) => walk(&join(path, &seg), ov, nv, rel_tol, report),
                    None => report.removed.push(join(path, &seg)),
                }
            }
            for (j, nv) in new_items.iter().enumerate() {
                let seg = element_segment(nv, j);
                if !old_items
                    .iter()
                    .enumerate()
                    .any(|(i, ov)| element_segment(ov, i) == seg)
                {
                    report.added.push(join(path, &seg));
                }
            }
        }
        (Json::Str(o), Json::Str(n)) => {
            if o != n {
                report
                    .strings_changed
                    .push((path.to_owned(), o.clone(), n.clone()));
            }
        }
        _ => match (leaf_num(old), leaf_num(new)) {
            (Some(o), Some(n)) => report.metrics.push(MetricDiff {
                path: path.to_owned(),
                old: o,
                new: n,
                class: classify(path, o, n, rel_tol),
            }),
            _ => {
                // Type changed (e.g. number → object): structural drift.
                report.removed.push(path.to_owned());
                report.added.push(path.to_owned());
            }
        },
    }
}

/// `true` for the snapshot keys whose values are wall-clock measurements:
/// `compile_seconds*`, `wall_us`, `phases` (the `profile` subtree's
/// per-phase times; their names are gated apart) and `jobs` (the `--jobs`
/// timings).
pub fn is_wall_clock_key(key: &str) -> bool {
    key.starts_with("compile_seconds") || matches!(key, "wall_us" | "phases" | "jobs")
}

/// The paths at which `fresh` differs from `committed` once both are
/// stripped of wall-clock keys, plus every phase name one side's
/// `phases` list has and the other's lacks and every phase whose `count`
/// differs; empty iff the two snapshots agree bit for bit on everything
/// but the times, work counters and histograms included.
pub fn snapshot_mismatches(committed: &Json, fresh: &Json) -> Vec<String> {
    let mut paths = phase_mismatches(committed, fresh);
    let old = strip_keys(committed, &is_wall_clock_key);
    let new = strip_keys(fresh, &is_wall_clock_key);
    if old == new {
        return paths;
    }
    let report = diff_snapshots(&old, &new, 0.0);
    let named = paths.len();
    paths.extend(
        report
            .metrics
            .iter()
            .filter(|m| m.old.to_bits() != m.new.to_bits())
            .map(|m| m.path.clone())
            .chain(report.removed.iter().map(|p| format!("{p} (removed)")))
            .chain(report.added.iter().map(|p| format!("{p} (added)")))
            .chain(report.strings_changed.iter().map(|(p, _, _)| p.clone())),
    );
    if paths.len() == named {
        // Same leaves under a different order: still not the same document.
        paths.push("(element order)".to_owned());
    }
    paths
}

/// Each phase name that one snapshot's `phases` list at some path has and
/// the other's lacks, as `"{path} (phase {name} removed|added)"`, and
/// each phase both have with a different `count`, as `"{path} (phase
/// {name} count {old} -> {new})"`; a `phases` list only one side has is
/// named once, as removed or added.
fn phase_mismatches(committed: &Json, fresh: &Json) -> Vec<String> {
    let (mut old, mut new) = (Vec::new(), Vec::new());
    phase_counts("", committed, &mut old);
    phase_counts("", fresh, &mut new);
    let mut paths = Vec::new();
    for (path, phases) in &old {
        let Some((_, fresh_phases)) = new.iter().find(|(p, _)| p == path) else {
            paths.push(format!("{path} (removed)"));
            continue;
        };
        let find = |list: &[Phase], name: &str| list.iter().find(|(n, _)| n == name).map(|p| p.1);
        for (name, count) in phases {
            match find(fresh_phases, name) {
                None => paths.push(format!("{path} (phase {name} removed)")),
                Some(c) if c.to_bits() != count.to_bits() => {
                    paths.push(format!("{path} (phase {name} count {count} -> {c})"));
                }
                Some(_) => {}
            }
        }
        let extra = fresh_phases
            .iter()
            .filter(|(n, _)| find(phases, n).is_none());
        paths.extend(extra.map(|(n, _)| format!("{path} (phase {n} added)")));
    }
    let added = new.iter().filter(|(p, _)| !old.iter().any(|(o, _)| o == p));
    paths.extend(added.map(|(p, _)| format!("{p} (added)")));
    paths
}

/// One profiled phase: its name and its `count` leaf (NaN without one).
type Phase = (String, f64);

/// Every `phases` list under `doc`, by path, as its phases sorted by
/// name. A `phases` value that is not a list of named entries has none.
fn phase_counts(path: &str, doc: &Json, out: &mut Vec<(String, Vec<Phase>)>) {
    match doc {
        Json::Obj(pairs) => {
            for (key, value) in pairs {
                let path = join(path, key);
                if key != "phases" {
                    phase_counts(&path, value, out);
                    continue;
                }
                let items = match value {
                    Json::Arr(items) => items.as_slice(),
                    _ => &[],
                };
                let mut phases: Vec<Phase> = items
                    .iter()
                    .filter_map(|item| Some((name_of(item)?.to_owned(), count_of(item))))
                    .collect();
                phases.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                out.push((path, phases));
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                phase_counts(&join(path, &element_segment(item, i)), item, out);
            }
        }
        _ => {}
    }
}

/// The numeric `count` field of an object element, NaN without one.
fn count_of(item: &Json) -> f64 {
    field(item, "count").and_then(leaf_num).unwrap_or(f64::NAN)
}

/// Compares two parsed snapshots. `rel_tol` is the relative tolerance
/// under which a quality metric counts as unchanged — 0 demands the
/// repo's usual bit-for-bit equality.
pub fn diff_snapshots(old: &Json, new: &Json, rel_tol: f64) -> DiffReport {
    let mut report = DiffReport::default();
    walk("", old, new, rel_tol, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_obs::json::parse;

    fn snapshot(makespan: f64, fidelity: f64, compile_s: f64) -> Json {
        Json::obj(vec![
            ("suite", Json::str("paper")),
            (
                "benchmarks",
                Json::Arr(vec![Json::obj(vec![
                    ("name", Json::str("QAOA")),
                    ("optimized_shuttles", Json::int(797)),
                    (
                        "clock",
                        Json::obj(vec![
                            ("clock_timed_makespan_us", Json::Num(makespan)),
                            ("program_fidelity", Json::Num(fidelity)),
                            ("compile_seconds", Json::Num(compile_s)),
                        ]),
                    ),
                    (
                        "profile",
                        Json::obj(vec![("wall_us", Json::Num(compile_s * 1e6))]),
                    ),
                ])]),
            ),
            ("all_clock_leq_packed", Json::Bool(true)),
        ])
    }

    #[test]
    fn identical_snapshots_have_no_changes() {
        let a = snapshot(220800.0, 1e-13, 1.5);
        let report = diff_snapshots(&a, &a, 0.0);
        assert_eq!(report.count(DiffClass::Regression), 0);
        assert_eq!(report.count(DiffClass::Improvement), 0);
        assert!(report.added.is_empty() && report.removed.is_empty());
        assert!(report.metrics.len() >= 4);
        assert!(report.to_markdown("a", "b").contains("no metric changed"));
    }

    #[test]
    fn direction_classifies_makespan_up_as_regression_and_fidelity_up_as_improvement() {
        let old = snapshot(220800.0, 1e-13, 1.5);
        let new = snapshot(230000.0, 2e-13, 9.0);
        let report = diff_snapshots(&old, &new, 0.0);
        let by_path = |needle: &str| {
            report
                .metrics
                .iter()
                .find(|m| m.path.contains(needle))
                .unwrap_or_else(|| panic!("no metric matching {needle}"))
        };
        assert_eq!(
            by_path("clock_timed_makespan_us").class,
            DiffClass::Regression
        );
        assert_eq!(by_path("program_fidelity").class, DiffClass::Improvement);
        // Wall-clock noise never gates, however large.
        assert_eq!(by_path("compile_seconds").class, DiffClass::Informational);
        assert_eq!(by_path("wall_us").class, DiffClass::Informational);
        assert_eq!(report.regressions().len(), 1);
        let md = report.to_markdown("OLD", "NEW");
        assert!(md.contains("benchmarks[QAOA].clock.clock_timed_makespan_us"));
        assert!(md.contains("| regression |"));
    }

    #[test]
    fn fidelity_attribution_subtree_is_informational() {
        // The per-benchmark `fidelity` attribution subtree is derived
        // observability (like `profile` and `explain`): its members carry
        // quality-looking names (`duration_loss`, `motional_share`) that
        // must never gate, while `clock.program_fidelity` outside the
        // subtree stays a quality metric.
        let with_attr = |loss: f64, fidelity: f64| {
            Json::obj(vec![(
                "benchmarks",
                Json::Arr(vec![Json::obj(vec![
                    ("name", Json::str("QAOA")),
                    (
                        "clock",
                        Json::obj(vec![("program_fidelity", Json::Num(fidelity))]),
                    ),
                    (
                        "fidelity",
                        Json::obj(vec![
                            ("total_loss", Json::Num(loss)),
                            ("duration_share", Json::Num(0.5)),
                            (
                                "hottest_traps",
                                Json::Arr(vec![Json::obj(vec![(
                                    "blamed_log_loss",
                                    Json::Num(loss / 2.0),
                                )])]),
                            ),
                        ]),
                    ),
                ])]),
            )])
        };
        let old = with_attr(0.05, 1e-13);
        let new = with_attr(0.09, 5e-14);
        let report = diff_snapshots(&old, &new, 0.0);
        for m in &report.metrics {
            if m.path.contains(".fidelity.") {
                assert_eq!(m.class, DiffClass::Informational, "{}", m.path);
            }
        }
        assert_eq!(report.regressions().len(), 1, "only program_fidelity gates");
        assert!(report.regressions()[0].path.ends_with("program_fidelity"));
    }

    #[test]
    fn tolerance_absorbs_small_drift_and_flags_cross_threshold_moves() {
        let old = snapshot(220800.0, 1e-13, 1.5);
        let new = snapshot(220810.0, 1e-13, 1.5);
        assert_eq!(
            diff_snapshots(&old, &new, 1e-3).count(DiffClass::Regression),
            0,
            "0.0045% drift sits inside a 0.1% tolerance"
        );
        assert_eq!(
            diff_snapshots(&old, &new, 0.0).count(DiffClass::Regression),
            1
        );
    }

    /// The bug this fixes: NaN compares false against everything, so a
    /// NaN quality leaf slid through the else-arms and classified as
    /// `Unchanged` — a poisoned snapshot passed the CI gate. Non-finite
    /// values on either side must regress unless bitwise-identical.
    #[test]
    fn non_finite_quality_leaves_gate_in_both_positions() {
        let cases: [(f64, f64); 6] = [
            (220800.0, f64::NAN),
            (f64::NAN, 220800.0),
            (220800.0, f64::INFINITY),
            (f64::INFINITY, 220800.0),
            (220800.0, f64::NEG_INFINITY),
            (f64::NEG_INFINITY, 220800.0),
        ];
        for (old_v, new_v) in cases {
            let old = snapshot(old_v, 1e-13, 1.5);
            let new = snapshot(new_v, 1e-13, 1.5);
            let report = diff_snapshots(&old, &new, 1e-3);
            let makespan = report
                .metrics
                .iter()
                .find(|m| m.path.contains("clock_timed_makespan_us"))
                .expect("makespan leaf compared");
            assert_eq!(
                makespan.class,
                DiffClass::Regression,
                "{old_v} -> {new_v} must gate"
            );
        }
        // Bitwise-identical non-finite pairs are the one carve-out: a
        // snapshot that was already poisoned identically does not re-gate.
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let a = snapshot(v, 1e-13, 1.5);
            let report = diff_snapshots(&a, &a, 0.0);
            assert_eq!(report.count(DiffClass::Regression), 0, "{v} vs itself");
        }
        // But +inf vs -inf (same magnitude, different bits) still gates.
        let report = diff_snapshots(
            &snapshot(f64::INFINITY, 1e-13, 1.5),
            &snapshot(f64::NEG_INFINITY, 1e-13, 1.5),
            0.0,
        );
        assert_eq!(report.count(DiffClass::Regression), 1);
    }

    /// Non-finite numbers render as `null`; a round-tripped poisoned
    /// snapshot must still gate rather than read as structural drift.
    #[test]
    fn null_leaves_classify_as_poisoned_numbers() {
        let old = parse(&snapshot(220800.0, 1e-13, 1.5).to_string()).unwrap();
        let new = parse(&snapshot(f64::NAN, 1e-13, 1.5).to_string()).unwrap();
        let report = diff_snapshots(&old, &new, 0.0);
        assert_eq!(report.regressions().len(), 1, "null leaf gates");
        assert!(report.regressions()[0]
            .path
            .contains("clock_timed_makespan_us"));
        // Identically-poisoned on both sides: NaN round-trips to null on
        // both sides, and null == null bitwise (both NaN) stays unchanged.
        let both = diff_snapshots(&new, &new, 0.0);
        assert_eq!(both.count(DiffClass::Regression), 0);
    }

    #[test]
    fn structural_drift_is_surfaced_and_flags_regress_when_cleared() {
        let old = snapshot(220800.0, 1e-13, 1.5);
        let mut new = snapshot(220800.0, 1e-13, 1.5);
        if let Json::Obj(pairs) = &mut new {
            pairs.retain(|(k, _)| k != "all_clock_leq_packed");
            pairs.push(("new_gate".to_owned(), Json::Bool(true)));
        }
        let report = diff_snapshots(&old, &new, 0.0);
        assert_eq!(report.removed, vec!["all_clock_leq_packed".to_owned()]);
        assert_eq!(report.added, vec!["new_gate".to_owned()]);

        let mut cleared = snapshot(220800.0, 1e-13, 1.5);
        if let Json::Obj(pairs) = &mut cleared {
            if let Some((_, v)) = pairs.iter_mut().find(|(k, _)| k == "all_clock_leq_packed") {
                *v = Json::Bool(false);
            }
        }
        let report = diff_snapshots(&old, &cleared, 0.0);
        assert_eq!(report.regressions().len(), 1, "true→false on an all_ flag");
    }

    /// Sets the leaf at `path` (object keys, or array indices) to `value`.
    fn set(doc: &mut Json, path: &[&str], value: Json) {
        let Some((head, rest)) = path.split_first() else {
            *doc = value;
            return;
        };
        let child = match doc {
            Json::Obj(pairs) => pairs
                .iter_mut()
                .find(|(k, _)| k == head)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no key {head}")),
            Json::Arr(items) => &mut items[head.parse::<usize>().expect("array index")],
            _ => panic!("{head}: not a container"),
        };
        set(child, rest, value);
    }

    /// The `muzzle snapshot` gate on a real rendered snapshot: editing
    /// one work counter or one quality leaf fails it and names the path;
    /// editing only wall-clock leaves passes.
    #[test]
    fn snapshot_parity_gates_counters_and_quality_but_not_wall_clock() {
        use crate::profile::{profile_suite, render_snapshot, SnapshotRow};
        use qccd_circuit::generators::{random_circuit, BenchmarkCircuit};
        use qccd_machine::MachineSpec;
        use qccd_sim::SimParams;
        use qccd_timing::TimingModel;

        let spec = MachineSpec::linear(3, 8, 2).unwrap();
        let bench = BenchmarkCircuit {
            name: "tiny".into(),
            circuit: random_circuit(12, 80, 3),
        };
        let model = TimingModel::realistic();
        let (row, profile) = profile_suite(&[bench], &spec, &SimParams::default(), &model)
            .expect("the instrumented run keeps every identity")
            .pop()
            .expect("one profile per benchmark");
        let counter = profile.counters[0].0.clone();
        let row = SnapshotRow {
            row,
            profile,
            explain: Json::obj(vec![("critical_path_steps", Json::int(7))]),
            fidelity: Json::obj(vec![("identity", Json::Bool(true))]),
            jobs: Json::obj(vec![("compile_seconds_jobs1", Json::Num(0.5))]),
        };
        let committed = parse(&render_snapshot(&spec, "realistic", &[row], true)).unwrap();
        assert!(snapshot_mismatches(&committed, &committed).is_empty());

        let gated: [(&[&str], &str); 3] = [
            (
                &["benchmarks", "0", "profile", "counters", &counter],
                "profile.counters.",
            ),
            (
                &["benchmarks", "0", "clock", "clock_timed_makespan_us"],
                "clock.clock_timed_makespan_us",
            ),
            (
                &["benchmarks", "0", "explain", "critical_path_steps"],
                "explain.",
            ),
        ];
        for (path, needle) in gated {
            let mut fresh = committed.clone();
            set(&mut fresh, path, Json::Num(1e9));
            let mismatches = snapshot_mismatches(&committed, &fresh);
            assert_eq!(mismatches.len(), 1, "{path:?}: {mismatches:?}");
            assert!(mismatches[0].contains(needle), "{mismatches:?}");
        }

        let wall_clock: [&[&str]; 6] = [
            &["benchmarks", "0", "clock", "compile_seconds"],
            &["benchmarks", "0", "baseline", "compile_seconds"],
            &["benchmarks", "0", "profile", "phases", "0", "total_us"],
            &["benchmarks", "0", "profile", "phases", "0", "self_us"],
            &["benchmarks", "0", "profile", "wall_us"],
            &["benchmarks", "0", "jobs"],
        ];
        let mut fresh = committed.clone();
        for path in wall_clock {
            set(&mut fresh, path, Json::Num(1e9));
        }
        assert_ne!(fresh, committed);
        assert!(snapshot_mismatches(&committed, &fresh).is_empty());
    }

    /// A snapshot whose one benchmark ran the phases `names`, each once.
    fn phased(names: &[&str], total_us: f64) -> Json {
        let phase = |name: &str| {
            Json::obj(vec![
                ("name", Json::str(name)),
                ("count", Json::int(1)),
                ("total_us", Json::Num(total_us)),
                ("self_us", Json::Num(total_us)),
            ])
        };
        let profile = Json::obj(vec![
            ("wall_us", Json::Num(total_us)),
            (
                "phases",
                Json::Arr(names.iter().map(|n| phase(n)).collect()),
            ),
        ]);
        Json::obj(vec![(
            "benchmarks",
            Json::Arr(vec![Json::obj(vec![
                ("name", Json::str("QAOA")),
                ("profile", profile),
            ])]),
        )])
    }

    #[test]
    fn snapshot_gate_names_a_missing_or_new_phase_but_not_its_time() {
        let committed = phased(&["compile", "dag", "replay"], 10.0);
        let reordered = phased(&["replay", "compile", "dag"], 99.0);
        assert!(snapshot_mismatches(&committed, &reordered).is_empty());

        let missing = phased(&["compile", "dag"], 10.0);
        assert_eq!(
            snapshot_mismatches(&committed, &missing),
            ["benchmarks[QAOA].profile.phases (phase replay removed)"]
        );
        let renamed = phased(&["compile", "dag", "schedule-validate"], 10.0);
        assert_eq!(
            snapshot_mismatches(&committed, &renamed),
            [
                "benchmarks[QAOA].profile.phases (phase replay removed)",
                "benchmarks[QAOA].profile.phases (phase schedule-validate added)",
            ]
        );
        let mut dropped = committed.clone();
        set(
            &mut dropped,
            &["benchmarks", "0", "profile", "phases"],
            Json::Num(1.0),
        );
        assert_eq!(
            snapshot_mismatches(&committed, &dropped).len(),
            3,
            "every phase name is gone"
        );
    }

    #[test]
    fn snapshot_gate_pins_each_phase_count_but_not_its_times() {
        let committed = phased(&["compile", "dag", "replay"], 10.0);
        let mut retimed = committed.clone();
        for field in ["total_us", "self_us"] {
            set(
                &mut retimed,
                &["benchmarks", "0", "profile", "phases", "2", field],
                Json::Num(1e9),
            );
        }
        assert!(snapshot_mismatches(&committed, &retimed).is_empty());

        let mut recounted = committed.clone();
        set(
            &mut recounted,
            &["benchmarks", "0", "profile", "phases", "2", "count"],
            Json::int(2),
        );
        assert_eq!(
            snapshot_mismatches(&committed, &recounted),
            ["benchmarks[QAOA].profile.phases (phase replay count 1 -> 2)"]
        );
    }

    #[test]
    fn diffs_real_rendered_documents() {
        let old = parse(&snapshot(220800.0, 1e-13, 1.5).to_string()).unwrap();
        let new = parse(&snapshot(219000.0, 1e-13, 2.5).to_string()).unwrap();
        let report = diff_snapshots(&old, &new, 0.0);
        assert_eq!(report.count(DiffClass::Regression), 0);
        assert_eq!(report.count(DiffClass::Improvement), 1, "makespan down");
        let json = report.to_json("a.json", "b.json").to_string();
        assert!(json.contains("\"regressions\": 0"));
        assert!(json.contains("\"class\": \"improvement\""));
    }
}
