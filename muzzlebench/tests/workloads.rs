//! Scaled-down instances of every workload: each emits every metric
//! `BENCHMARK.json` names, with its unit, and a corrupted schedule counts
//! as a failure.

use muzzlebench::layers::traced_run;
use muzzlebench::report::Report;
use muzzlebench::workload::{prefix, Inputs, Scale, Workload};
use muzzlebench::{setup, untraced_run};
use qccd_circuit::generators::random_circuit;
use qccd_machine::{Operation, TrapId};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[at..entry[at..].find('"').map(|e| at + e).expect("closed")].to_owned()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn assert_emits(report: &Report, section: &str, workload: Workload) {
    let names: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
    let want = declared(section);
    assert_eq!(names.len(), want.len(), "{workload:?}: {names:?}");
    for ((name, unit), (want_name, want_unit)) in names.iter().zip(&want) {
        assert_eq!((*name, *unit), (want_name.as_str(), want_unit.as_str()));
    }
    assert!(report.metrics.iter().all(|m| m.value.is_finite()));
    let json = report.json();
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
    for (name, unit) in &want {
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name}"
        );
        assert!(json.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for workload in Workload::ALL {
        let (inputs, setup_s) = setup(workload, 7, Scale::Smoke);
        let report = untraced_run(&inputs, 0.0, setup_s, &mut |_| {});
        assert!(report.correct(), "{workload:?}: {} failed", report.failed);
        assert_emits(&report, "end_to_end", workload);
        for name in [
            "setup_s",
            "wall_s",
            "compile_s.p50",
            "shuttles",
            "peak_rss_mb",
        ] {
            assert!(
                report.get(name).is_some_and(|v| v > 0.0),
                "{workload:?} {name}"
            );
        }
        assert_eq!(report.get("failed_share"), Some(0.0));
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    // One test drives every traced run: `qccd_obs` telemetry is
    // process-global, so traced runs must not overlap.
    for workload in Workload::ALL {
        let (inputs, _) = setup(workload, 7, Scale::Smoke);
        let report = traced_run(&inputs, 0.0);
        assert!(report.correct(), "{workload:?}: {} failed", report.failed);
        assert_emits(&report, "per_layer", workload);
        for name in [
            "core.compile_s",
            "route.validate_s",
            "obs.unattributed_share",
        ] {
            assert!(
                report.get(name).is_some_and(|v| v > 0.0),
                "{workload:?} {name}"
            );
        }
        if workload == Workload::GridClock {
            for name in ["flow.solves", "pack.pack_s", "timing.delta_hits"] {
                assert!(report.get(name).is_some_and(|v| v > 0.0), "{name}");
            }
        }
    }
}

#[test]
fn corrupted_schedule_counts_in_failed_share() {
    for workload in Workload::ALL {
        let (inputs, setup_s) = setup(workload, 3, Scale::Smoke);
        let mut seen = 0;
        let report = untraced_run(&inputs, 0.0, setup_s, &mut |out| {
            seen += 1;
            if seen > 1 {
                return;
            }
            // Run the first gate in a trap it does not execute in.
            let ops = &mut out
                .as_mut()
                .expect("smoke compiles succeed")
                .result
                .schedule
                .operations;
            let trap = ops
                .iter_mut()
                .find_map(|op| match op {
                    Operation::Gate { trap, .. } => Some(trap),
                    Operation::Shuttle { .. } => None,
                })
                .expect("a schedule has gates");
            *trap = TrapId((trap.0 + 1) % inputs.spec.num_traps());
        });
        assert!(!report.correct(), "{workload:?}");
        // The first pass fails its checks; every later pass then differs
        // from the checked first pass in that slot.
        let passes = report.get("passes").expect("passes reported") as u64;
        assert_eq!(report.failed, passes, "{workload:?}");
        let share = report.get("failed_share").expect("failed_share reported");
        assert_eq!(share, report.failed as f64 / report.attempted as f64);
        assert!(report.json().starts_with("{\"correct\": false"));
    }
}

#[test]
fn inputs_repeat_per_seed_and_halves_are_prefixes() {
    let a = Inputs::generate(Workload::GridShuttles, 5, Scale::Full);
    let b = Inputs::generate(Workload::GridShuttles, 5, Scale::Full);
    assert_eq!(a.circuits, b.circuits);
    assert_eq!(a.circuits[1].0, "random:120x16000@16");
    let c = Inputs::generate(Workload::Paper125, 5, Scale::Full);
    assert_eq!(c.circuits.len(), 125);
    let full = &a.circuits[0].1;
    assert_eq!(prefix(full, 8_000), random_circuit(120, 8_000, 15));
}
