//! Parsing of `--circuit` and machine-shape options into workspace types.

use qccd_circuit::generators::{qaoa, qft, quadratic_form, random_circuit, square_root, supremacy};
use qccd_circuit::parser::parse_program;
use qccd_circuit::Circuit;
use qccd_machine::{MachineSpec, TrapTopology, ZoneLayout};

pub use qccd_bench::MAX_GATES;

/// The most traps a machine may have: 2^13 = 8192. Shortest-path queries
/// build BFS rows lazily, one per source trap, so they can reach
/// traps² × 8 B — 512 MiB at this bound. Larger machines are usage
/// errors, rejected before building anything, instead of allocation
/// failures.
pub const MAX_TRAPS: u64 = 1 << 13;

/// A parsed `--circuit` argument: the circuit plus a display name.
pub struct CircuitSpec {
    /// Canonical display name (e.g. `qft:16`).
    pub name: String,
    /// The generated or parsed circuit.
    pub circuit: Circuit,
}

/// Parses a `--circuit` spec.
///
/// Grammar: `family:dims` with dimensions separated by `x` and an optional
/// `@seed` suffix, or `file:PATH` (a program-text file; pass `--qubits`).
///
/// | Spec | Meaning |
/// |------|---------|
/// | `qft:16` | 16-qubit quantum Fourier transform |
/// | `qaoa:64x13[@seed]` | QAOA MaxCut, 64 qubits × 13 rounds |
/// | `supremacy:8x8x20` | supremacy-style grid, 8×8 qubits × 20 cycles |
/// | `sqrt:78x9` | Grover-style square root, 78 qubits × 9 blocks |
/// | `quadform:64x3400` | QuadraticForm with ≈3400 two-qubit gates |
/// | `random:60x1438[@seed]` | uniform random two-qubit circuit |
/// | `file:prog.txt` | program text in the paper's listing format |
///
/// A circuit with more qubits than `max_qubits` (the machine's ion
/// capacity) or more than [`MAX_GATES`] gates is rejected before anything
/// is generated, so an oversized spec is a usage error rather than an
/// allocation failure.
pub fn parse_circuit(
    spec: &str,
    file_qubits: Option<u32>,
    max_qubits: u32,
) -> Result<CircuitSpec, String> {
    let (family, rest) = spec
        .split_once(':')
        .ok_or_else(|| format!("circuit spec `{spec}` needs the form family:dims"))?;
    let fits = |qubits: u64| -> Result<(), String> {
        if qubits <= u64::from(max_qubits) {
            Ok(())
        } else {
            Err(format!(
                "circuit `{spec}` needs {qubits} qubits but the machine holds at most \
                 {max_qubits} ions"
            ))
        }
    };
    if family == "file" {
        let qubits =
            file_qubits.ok_or_else(|| "file: circuits need an explicit --qubits N".to_owned())?;
        fits(u64::from(qubits))?;
        let text = std::fs::read_to_string(rest)
            .map_err(|e| format!("cannot read circuit file `{rest}`: {e}"))?;
        let circuit =
            parse_program(&text, qubits).map_err(|e| format!("parse error in `{rest}`: {e}"))?;
        return Ok(CircuitSpec {
            name: format!("file:{rest}"),
            circuit,
        });
    }

    let (dims_text, seed) = match rest.split_once('@') {
        Some((d, s)) => (
            d,
            Some(
                s.parse::<u64>()
                    .map_err(|_| format!("bad seed `{s}` in circuit spec `{spec}`"))?,
            ),
        ),
        None => (rest, None),
    };
    let dims: Vec<u64> = dims_text
        .split('x')
        .map(|d| {
            d.parse::<u32>()
                .map(u64::from)
                .map_err(|_| format!("bad dimension `{d}` in circuit spec `{spec}`"))
        })
        .collect::<Result<_, _>>()?;
    // Only seeded families may carry an @seed suffix; accepting it anywhere
    // else would let seed sweeps silently produce identical circuits.
    if seed.is_some() && !matches!(family, "qaoa" | "random") {
        return Err(format!(
            "circuit family `{family}` is deterministic and takes no @seed (in `{spec}`)"
        ));
    }

    let expect = |n: usize| -> Result<(), String> {
        if dims.len() == n {
            Ok(())
        } else {
            Err(format!(
                "circuit family `{family}` takes {n} dimension(s), got {} in `{spec}`",
                dims.len()
            ))
        }
    };

    // The generators assert their structural minimums; below them the
    // spec is a usage error, not a panic.
    let require = |ok: bool, need: &str| -> Result<(), String> {
        if ok {
            Ok(())
        } else {
            Err(format!(
                "circuit family `{family}` needs {need}, got {} qubits in `{spec}`",
                dims[0]
            ))
        }
    };

    // Qubit count first, in u64 (a product of two u32 dimensions cannot
    // wrap there), checked against the machine before any generator runs.
    // Every family but supremacy (rows × cols) takes it as its first
    // dimension.
    if let Some(&first) = dims.first() {
        let qubits = match (family, dims.as_slice()) {
            ("supremacy", [rows, cols, ..]) => rows * cols,
            _ => first,
        };
        fits(qubits)?;
    }

    // Then the gate count, in u64, against `MAX_GATES`.
    let bounded = |gates: u64| -> Result<(), String> {
        if gates <= MAX_GATES {
            Ok(())
        } else {
            Err(format!(
                "circuit `{spec}` has {gates} gates, above the maximum of {MAX_GATES}"
            ))
        }
    };

    let circuit = match family {
        "qft" => {
            expect(1)?;
            bounded(gate_count(family, &dims))?;
            qft(dims[0] as u32)
        }
        "qaoa" => {
            expect(2)?;
            require(
                dims[0] >= 4 && dims[0].is_multiple_of(2),
                "an even qubit count of at least 4 (a 3-regular graph)",
            )?;
            bounded(gate_count(family, &dims))?;
            qaoa(dims[0] as u32, dims[1] as u32, seed.unwrap_or(0xA0A0))
        }
        "supremacy" => {
            expect(3)?;
            bounded(gate_count(family, &dims))?;
            supremacy(dims[0] as u32, dims[1] as u32, dims[2] as u32)
        }
        "sqrt" => {
            expect(2)?;
            require(dims[0] >= 4, "at least 4 qubits")?;
            bounded(gate_count(family, &dims))?;
            square_root(dims[0] as u32, dims[1] as u32)
        }
        "quadform" => {
            expect(2)?;
            require(dims[0] >= 2, "at least 2 qubits")?;
            bounded(gate_count(family, &dims))?;
            quadratic_form(dims[0] as u32, dims[1] as usize)
        }
        "random" => {
            expect(2)?;
            require(dims[0] >= 2, "at least 2 qubits")?;
            bounded(gate_count(family, &dims))?;
            random_circuit(dims[0] as u32, dims[1] as usize, seed.unwrap_or(7))
        }
        other => {
            return Err(format!(
                "unknown circuit family `{other}` \
                 (expected qft, qaoa, supremacy, sqrt, quadform, random, or file)"
            ))
        }
    };
    Ok(CircuitSpec {
        name: spec.to_owned(),
        circuit,
    })
}

/// The number of gates a generator family emits for `dims`, computed in
/// u64 (saturating) without generating. Exact for every family except
/// `sqrt:78x9`, which the generator trims to the paper's 1028 two-qubit
/// gates; there it is an upper bound. `dims` has the family's arity and
/// meets its structural minimum.
fn gate_count(family: &str, dims: &[u64]) -> u64 {
    match (family, dims) {
        // H on every qubit, two MS per ordered pair: n + n(n − 1).
        ("qft", &[n]) => n.saturating_mul(n),
        // Per round: a ZZ on each of the 3n/2 cubic-graph edges, then an
        // RX on every qubit.
        ("qaoa", &[n, rounds]) => rounds.saturating_mul(n / 2 * 3 + n),
        // Per cycle: an RX on every qubit, then one of four brick layers.
        ("supremacy", &[rows, cols, cycles]) => {
            let bricks = [
                rows * (cols / 2),
                (rows / 2) * cols,
                rows * (cols.saturating_sub(1) / 2),
                (rows.saturating_sub(1) / 2) * cols,
            ];
            let two_qubit = (0..4u64).fold(0u64, |sum, k| {
                let times = cycles / 4 + u64::from(k < cycles % 4);
                sum.saturating_add(bricks[k as usize].saturating_mul(times))
            });
            cycles.saturating_mul(rows * cols).saturating_add(two_qubit)
        }
        // Per block: H on half the qubits, then two chains and the cross
        // edges between them.
        ("sqrt", &[n, blocks]) => {
            let half = n / 2;
            let per_block = half + (half - 1) + half + (n - half - 1);
            blocks.saturating_mul(per_block)
        }
        // H on every qubit, then exactly the requested two-qubit gates.
        ("quadform", &[n, gates]) => n.saturating_add(gates),
        ("random", &[_, gates]) => gates,
        _ => unreachable!("gate_count is called with a family's checked dimensions"),
    }
}

/// Machine-shape options shared by every subcommand. Defaults to the
/// paper's L6 evaluation platform (§IV-A): 6 linear traps, capacity 17,
/// communication capacity 2.
pub struct MachineOptions {
    /// Number of traps (`--traps`).
    pub traps: u32,
    /// Total per-trap capacity (`--capacity`).
    pub capacity: u32,
    /// Communication capacity (`--comm`).
    pub comm: u32,
    /// Interconnect shape (`--topology linear[:N]|ring[:N]|grid:RxC`;
    /// sized forms override `--traps`).
    pub topology: String,
    /// Per-trap zone layout (`--zones GATE:STORAGE:LOADING`; `None` keeps
    /// the paper's homogeneous single-gate-zone traps).
    pub zones: Option<String>,
}

impl Default for MachineOptions {
    fn default() -> Self {
        MachineOptions {
            traps: 6,
            capacity: 17,
            comm: 2,
            topology: "linear".to_owned(),
            zones: None,
        }
    }
}

impl MachineOptions {
    /// Builds the validated [`MachineSpec`].
    ///
    /// Topology grammar: `linear` / `ring` take their size from `--traps`;
    /// the explicitly-sized forms `linear:N`, `ring:N` and `grid:RxC` name
    /// their own trap count (and override `--traps`). Malformed or
    /// degenerate specs (`grid:0x3`, `ring:1`, `linear:x`) are rejected
    /// with a parse error.
    pub fn build(&self) -> Result<MachineSpec, String> {
        let topology = parse_topology(&self.topology, self.traps)?;
        let spec =
            MachineSpec::new(topology, self.capacity, self.comm).map_err(|e| e.to_string())?;
        match &self.zones {
            None => Ok(spec),
            Some(text) => {
                let layout = parse_zones(text)?;
                spec.with_zone_layout(layout).map_err(|e| e.to_string())
            }
        }
    }
}

/// Parses a `--zones GATE:STORAGE:LOADING` spec (e.g. `13:2:2`).
fn parse_zones(text: &str) -> Result<ZoneLayout, String> {
    let parts: Vec<&str> = text.split(':').collect();
    let [gate, storage, loading] = parts.as_slice() else {
        return Err(format!(
            "--zones needs GATE:STORAGE:LOADING (three zone sizes), got `{text}`"
        ));
    };
    let num = |part: &str| -> Result<u32, String> {
        part.parse()
            .map_err(|_| format!("bad zone size `{part}` in `--zones {text}`"))
    };
    ZoneLayout::new(num(gate)?, num(storage)?, num(loading)?).map_err(|e| e.to_string())
}

/// Parses a `--topology` spec; `default_traps` sizes the bare
/// `linear`/`ring` forms.
fn parse_topology(spec: &str, default_traps: u32) -> Result<TrapTopology, String> {
    let (family, size) = match spec.split_once(':') {
        Some((f, s)) => (f, Some(s)),
        None => (spec, None),
    };
    let sized = |text: Option<&str>| -> Result<u32, String> {
        let n = match text {
            None => default_traps,
            Some(t) => t
                .parse::<u32>()
                .map_err(|_| format!("bad trap count `{t}` in topology `{spec}`"))?,
        };
        within_trap_bound(u64::from(n), spec)?;
        Ok(n)
    };
    match family {
        "linear" => {
            let n = sized(size)?;
            if n == 0 {
                return Err(format!(
                    "linear topology needs at least 1 trap (in `{spec}`)"
                ));
            }
            Ok(TrapTopology::linear(n))
        }
        "ring" => {
            let n = sized(size)?;
            if n < 3 {
                return Err(format!(
                    "ring topology needs at least 3 traps, got {n} (in `{spec}`)"
                ));
            }
            Ok(TrapTopology::ring(n))
        }
        "grid" => {
            let dims = size.ok_or_else(|| format!("grid topology needs grid:RxC, got `{spec}`"))?;
            let (r, c) = dims
                .split_once('x')
                .ok_or_else(|| format!("grid topology needs grid:RxC, got `{spec}`"))?;
            let rows: u32 = r.parse().map_err(|_| format!("bad grid rows `{r}`"))?;
            let cols: u32 = c.parse().map_err(|_| format!("bad grid cols `{c}`"))?;
            if rows == 0 || cols == 0 {
                return Err(format!(
                    "grid dimensions must be at least 1x1, got {rows}x{cols} (in `{spec}`)"
                ));
            }
            within_trap_bound(u64::from(rows) * u64::from(cols), spec)?;
            Ok(TrapTopology::grid(rows, cols))
        }
        other => Err(format!(
            "unknown topology `{other}` (expected linear[:N], ring[:N], or grid:RxC)"
        )),
    }
}

/// Rejects machines with more than [`MAX_TRAPS`] traps.
fn within_trap_bound(traps: u64, spec: &str) -> Result<(), String> {
    if traps <= MAX_TRAPS {
        Ok(())
    } else {
        Err(format!(
            "topology `{spec}` has {traps} traps, above the maximum of {MAX_TRAPS}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_family() {
        for (spec, qubits, gates) in [
            ("qft:16", 16, 240), // 2 MS per controlled-phase: n(n-1)
            ("qaoa:16x2", 16, 48),
            ("supremacy:4x4x12", 16, 0), // gate count checked loosely below
            ("sqrt:16x3", 16, 0),
            ("quadform:16x200", 16, 200),
            ("random:18x200", 18, 200),
        ] {
            let c = parse_circuit(spec, None, u32::MAX).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(c.circuit.num_qubits(), qubits, "{spec}");
            if gates > 0 {
                assert_eq!(c.circuit.two_qubit_gate_count(), gates, "{spec}");
            }
            assert_eq!(c.name, spec);
        }
    }

    #[test]
    fn seed_suffix_changes_random_circuits() {
        let a = parse_circuit("random:12x50@1", None, u32::MAX).unwrap();
        let b = parse_circuit("random:12x50@2", None, u32::MAX).unwrap();
        assert_ne!(a.circuit, b.circuit);
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(parse_circuit("qft", None, u32::MAX).is_err());
        assert!(parse_circuit("qft:16x2", None, u32::MAX).is_err());
        assert!(parse_circuit("nosuch:4", None, u32::MAX).is_err());
        assert!(parse_circuit("random:axb", None, u32::MAX).is_err());
        assert!(parse_circuit("random:12x50@zz", None, u32::MAX).is_err());
        assert!(
            parse_circuit("file:nope.txt", None, u32::MAX).is_err(),
            "file needs --qubits"
        );
    }

    /// Below a generator's structural minimum the spec is rejected with
    /// the requirement named, instead of reaching the generator's assert.
    fn rejects_small(specs: &[&str], needle: &str) {
        for spec in specs {
            let err = parse_circuit(spec, None, u32::MAX)
                .err()
                .unwrap_or_else(|| panic!("{spec}"));
            assert!(err.contains(needle), "`{spec}` → `{err}`");
        }
    }

    #[test]
    fn rejects_qaoa_without_a_cubic_graph() {
        rejects_small(&["qaoa:0x1", "qaoa:2x3", "qaoa:5x2", "qaoa:7x1@3"], "even");
        assert!(parse_circuit("qaoa:4x0", None, u32::MAX).is_ok());
    }

    #[test]
    fn rejects_random_circuits_below_two_qubits() {
        rejects_small(
            &["random:0x10", "random:1x10", "random:1x0@4"],
            "at least 2 qubits",
        );
        assert!(parse_circuit("random:2x0", None, u32::MAX).is_ok());
    }

    #[test]
    fn rejects_quadform_below_two_qubits() {
        rejects_small(&["quadform:0x0", "quadform:1x5"], "at least 2 qubits");
        assert!(parse_circuit("quadform:2x0", None, u32::MAX).is_ok());
    }

    #[test]
    fn rejects_sqrt_below_four_qubits() {
        rejects_small(&["sqrt:0x0", "sqrt:2x1", "sqrt:3x4"], "at least 4 qubits");
        assert!(parse_circuit("sqrt:4x0", None, u32::MAX).is_ok());
    }

    #[test]
    fn rejects_circuits_larger_than_the_machine_before_generating() {
        // One oversized spec per family. Each used to panic or exhaust
        // memory in its generator; the supremacy grid's rows × cols also
        // wrapped u32 to 0 qubits.
        let l6 = MachineSpec::paper_l6().initial_capacity();
        for spec in [
            "qft:4294967295",
            "qaoa:4294967294x1",
            "supremacy:65536x65536x1",
            "sqrt:4294967295x2",
            "quadform:4294967295x2",
            "random:4294967295x2@1",
        ] {
            let err = parse_circuit(spec, None, l6)
                .err()
                .unwrap_or_else(|| panic!("{spec}"));
            assert!(
                err.contains("the machine holds at most 90 ions"),
                "`{spec}` → `{err}`"
            );
        }
        let err = parse_circuit("supremacy:65536x65536x1", None, u32::MAX)
            .err()
            .expect("2^32 qubits exceed any machine");
        assert!(err.contains("needs 4294967296 qubits"), "{err}");
        let err = parse_circuit("file:prog.txt", Some(91), l6).err().unwrap();
        assert!(err.contains("needs 91 qubits"), "{err}");
        // At the limit the spec still generates.
        assert!(parse_circuit("qft:90", None, l6).is_ok());
    }

    /// The predicted gate count is the generated one (an upper bound for
    /// the trimmed `sqrt:78x9`), so the bound rejects exactly the specs
    /// that would generate too many gates.
    #[test]
    fn gate_count_predicts_every_generator() {
        for spec in [
            "qft:1",
            "qft:7",
            "qaoa:4x0",
            "qaoa:10x3",
            "supremacy:1x1x5",
            "supremacy:2x1x3",
            "supremacy:3x4x9",
            "supremacy:5x3x14",
            "sqrt:4x0",
            "sqrt:9x3",
            "quadform:2x5",
            "quadform:7x40",
            "random:3x0",
            "random:9x31",
        ] {
            let c = parse_circuit(spec, None, u32::MAX).unwrap();
            let (family, rest) = spec.split_once(':').unwrap();
            let dims: Vec<u64> = rest.split('x').map(|d| d.parse().unwrap()).collect();
            assert_eq!(gate_count(family, &dims), c.circuit.len() as u64, "{spec}");
        }
        let paper = parse_circuit("sqrt:78x9", None, u32::MAX).unwrap();
        assert!(gate_count("sqrt", &[78, 9]) >= paper.circuit.len() as u64);
    }

    /// Gate-count dimensions that fit the machine's qubits but would
    /// generate more than `MAX_GATES` gates are rejected before
    /// generating (they used to abort on allocation), one per family.
    #[test]
    fn rejects_circuits_above_the_gate_bound_before_generating() {
        for (spec, gates) in [
            ("qft:4097", 4097u64 * 4097),
            ("qaoa:8x4294967295", 20 * 4294967295),
            ("qaoa:8x100000000", 2_000_000_000),
            // 16 RX per cycle plus 8, 8, 4, 4 MS in the four brick layers.
            ("supremacy:4x4x4294967295", 94_489_280_492),
            ("sqrt:8x4294967295", 14 * 4294967295),
            ("quadform:8x4294967295", 4294967303),
            ("random:8x4294967295", 4294967295),
            ("random:8x16777217", 16777217),
        ] {
            let err = parse_circuit(spec, None, u32::MAX)
                .err()
                .unwrap_or_else(|| panic!("{spec}"));
            assert_eq!(
                err,
                format!("circuit `{spec}` has {gates} gates, above the maximum of 16777216"),
            );
        }
        assert_eq!(gate_count("random", &[2, 1 << 24]), MAX_GATES);
        // The qubit bound is checked first.
        let err = parse_circuit("qaoa:100x4294967295", None, 90)
            .err()
            .unwrap();
        assert!(err.contains("at most 90 ions"), "{err}");
    }

    #[test]
    fn default_machine_is_paper_l6() {
        let spec = MachineOptions::default().build().unwrap();
        assert_eq!(spec, MachineSpec::paper_l6());
    }

    #[test]
    fn zones_option_builds_multi_zone_machines() {
        let mut opts = MachineOptions {
            zones: Some("13:2:2".to_owned()),
            ..MachineOptions::default()
        };
        let spec = opts.build().unwrap();
        assert!(!spec.zone_layout().is_single());
        assert_eq!(spec.zone_layout().gate, 13);
        assert_eq!(spec.to_string(), "L6(cap 17, comm 2, zones 13+2+2)");
        for (zones, needle) in [
            ("13:2", "three zone sizes"),
            ("a:2:2", "bad zone size"),
            ("0:15:2", "no gate zone"),
            ("12:2:2", "sum to 16"),    // != capacity 17
            ("14:2:1", "loading zone"), // comm 2 > loading 1
        ] {
            opts.zones = Some(zones.to_owned());
            let err = opts.build().unwrap_err();
            assert!(err.contains(needle), "`{zones}` → `{err}`");
        }
    }

    #[test]
    fn builds_ring_and_grid() {
        let mut opts = MachineOptions {
            traps: 4,
            capacity: 8,
            comm: 2,
            topology: "ring".to_owned(),
            zones: None,
        };
        assert_eq!(opts.build().unwrap().topology().to_string(), "R4");
        opts.topology = "grid:2x2".to_owned();
        assert_eq!(opts.build().unwrap().topology().to_string(), "G2x2");
        opts.topology = "torus".to_owned();
        assert!(opts.build().is_err());
    }

    #[test]
    fn sized_topology_specs_override_traps() {
        let mut opts = MachineOptions {
            traps: 4,
            capacity: 8,
            comm: 2,
            topology: "linear:7".to_owned(),
            zones: None,
        };
        assert_eq!(opts.build().unwrap().topology().to_string(), "L7");
        opts.topology = "ring:5".to_owned();
        assert_eq!(opts.build().unwrap().topology().to_string(), "R5");
        opts.topology = "grid:2x3".to_owned();
        assert_eq!(opts.build().unwrap().topology().to_string(), "G2x3");
    }

    #[test]
    fn trap_counts_above_the_bound_are_rejected_before_building() {
        let mut opts = MachineOptions {
            traps: 8192,
            ..MachineOptions::default()
        };
        assert_eq!(opts.build().unwrap().num_traps(), 8192);
        for (traps, topology) in [(8193, "linear"), (u32::MAX, "linear"), (u32::MAX, "ring")] {
            opts.traps = traps;
            opts.topology = topology.to_owned();
            let err = opts.build().unwrap_err();
            assert!(
                err.contains("above the maximum of 8192"),
                "{traps} → `{err}`"
            );
        }
    }

    #[test]
    fn malformed_topology_specs_are_rejected() {
        let base = MachineOptions::default;
        for (spec, needle) in [
            ("grid:0x3", "at least 1x1"),
            ("grid:3x0", "at least 1x1"),
            ("ring:1", "at least 3 traps"),
            ("ring:2", "at least 3 traps"),
            ("linear:0", "at least 1 trap"),
            ("linear:x", "bad trap count"),
            ("grid:axb", "bad grid rows"),
            ("grid:3", "grid:RxC"),
            ("grid", "grid:RxC"),
            ("moebius:4", "unknown topology"),
            ("linear:8193", "above the maximum of 8192"),
            ("ring:4294967295", "above the maximum of 8192"),
            ("grid:65536x65536", "has 4294967296 traps"),
            ("grid:91x91", "above the maximum of 8192"),
        ] {
            let mut opts = base();
            opts.topology = spec.to_owned();
            let err = opts.build().unwrap_err();
            assert!(err.contains(needle), "`{spec}` → `{err}`");
        }
    }
}
