//! The three workloads: their inputs, machine and compile entry calls.

use qccd_circuit::generators::{paper_suite, random_circuit, random_suite};
use qccd_circuit::{Circuit, GateQubits};
use qccd_core::{CompilerConfig, Objective, RouterPolicy, TimingModel};
use qccd_machine::{MachineSpec, TrapTopology};

/// Seed of the paper's random suite in the repository's evaluation harness
/// (`qccd-bench`'s `RANDOM_SUITE_SEED`); `paper125`'s default seed.
pub const PAPER_SEED: u64 = 0xDA7E_2022;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 125 circuits on L6, baseline and optimized compiles.
    Paper125,
    /// Large random circuits on a 4x4 grid, shuttle-count objective.
    GridShuttles,
    /// Large random circuits on a 4x4 grid, clock-objective pipeline.
    GridClock,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Paper125,
        Workload::GridShuttles,
        Workload::GridClock,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper125 => "paper125",
            Workload::GridShuttles => "grid_shuttles",
            Workload::GridClock => "grid_clock",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Seed used when none is given.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Paper125 => PAPER_SEED,
            Workload::GridShuttles | Workload::GridClock => 1,
        }
    }

    /// The compile entry calls run on every circuit, in order. The last
    /// one produces the workload's chosen result.
    pub fn entries(self) -> Vec<Entry> {
        match self {
            Workload::Paper125 => vec![
                Entry::Compile(CompilerConfig::baseline()),
                Entry::Compile(CompilerConfig::optimized()),
            ],
            Workload::GridShuttles => vec![Entry::Compile(CompilerConfig::optimized())],
            Workload::GridClock => vec![Entry::Clock(clock_config())],
        }
    }

    /// The plain `compile` calls behind the entry calls. For `grid_clock`
    /// these are the two arms `compile_clock` races (default objective and
    /// clock objective, both on the lookahead-packed congestion router).
    pub fn plain_configs(self) -> Vec<CompilerConfig> {
        match self {
            Workload::GridClock => {
                let c = clock_config()
                    .with_router(RouterPolicy::congestion())
                    .with_lookahead(true);
                vec![
                    c.with_objective(Objective::Shuttles),
                    c.with_objective(Objective::Clock),
                ]
            }
            _ => self
                .entries()
                .into_iter()
                .map(|e| match e {
                    Entry::Compile(c) | Entry::Clock(c) => c,
                })
                .collect(),
        }
    }

    /// Whether the chosen results answer to the relaxed transport
    /// validator (lookahead, packed and clock results reorder hops within
    /// gate-free runs).
    pub fn relaxed_transport(self) -> bool {
        self == Workload::GridClock
    }
}

/// `grid_clock`'s pipeline configuration: realistic timing, two workers.
fn clock_config() -> CompilerConfig {
    CompilerConfig::optimized()
        .with_timing(TimingModel::realistic())
        .with_objective(Objective::Clock)
        .with_jobs(2)
}

/// A compile entry call.
#[derive(Debug, Clone, Copy)]
pub enum Entry {
    /// `qccd_core::compile` under the config.
    Compile(CompilerConfig),
    /// `qccd_pack::compile_clock` under the config.
    Clock(CompilerConfig),
}

impl Entry {
    /// The config of the call.
    pub fn config(&self) -> &CompilerConfig {
        match self {
            Entry::Compile(c) | Entry::Clock(c) => c,
        }
    }
}

/// How large the generated inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's inputs.
    Full,
    /// A scaled-down instance of each workload, for the benchmark's tests.
    Smoke,
}

/// Random-suite circuits per qubit count in `paper125` (4 sizes).
const PAPER_RANDOM_PER_SIZE: usize = 30;
/// Circuits per pass of the grid workloads.
const GRID_CIRCUITS: u64 = 3;
/// Qubits of the grid workloads' random circuits.
const GRID_QUBITS: u32 = 120;

/// A workload's generated inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// The machine every circuit compiles onto.
    pub spec: MachineSpec,
    /// The circuits of one pass, with display names.
    pub circuits: Vec<(String, Circuit)>,
    /// How many leading circuits are the paper's named benchmarks.
    pub named: usize,
}

impl Inputs {
    /// Generates the inputs of `workload` from `seed`: the same seed gives
    /// the same circuits. Grid circuit `i` of seed `s` is
    /// `random:120xG@(3s+i)` in the CLI's notation.
    pub fn generate(workload: Workload, seed: u64, scale: Scale) -> Inputs {
        match workload {
            Workload::Paper125 => {
                let per_size = match scale {
                    Scale::Full => PAPER_RANDOM_PER_SIZE,
                    Scale::Smoke => 1,
                };
                let mut benches = paper_suite();
                if scale == Scale::Smoke {
                    benches.truncate(1);
                }
                let named = benches.len();
                benches.extend(random_suite(per_size, seed));
                Inputs {
                    workload,
                    spec: MachineSpec::paper_l6(),
                    circuits: benches.into_iter().map(|b| (b.name, b.circuit)).collect(),
                    named,
                }
            }
            Workload::GridShuttles | Workload::GridClock => {
                let gates = match (workload, scale) {
                    (Workload::GridShuttles, Scale::Full) => 16_000,
                    (_, Scale::Full) => 8_000,
                    (_, Scale::Smoke) => 600,
                };
                let circuits = (0..GRID_CIRCUITS)
                    .map(|i| {
                        let s = seed.wrapping_mul(GRID_CIRCUITS).wrapping_add(i);
                        (
                            format!("random:{GRID_QUBITS}x{gates}@{s}"),
                            random_circuit(GRID_QUBITS, gates, s),
                        )
                    })
                    .collect();
                Inputs {
                    workload,
                    spec: grid_spec(),
                    circuits,
                    named: 0,
                }
            }
        }
    }
}

/// The grid workloads' machine: `grid:4x4`, capacity 12, comm 2.
fn grid_spec() -> MachineSpec {
    MachineSpec::new(TrapTopology::grid(4, 4), 12, 2).expect("grid:4x4 cap 12 comm 2 is valid")
}

/// The first `len` gates of `circuit` as a circuit of their own.
pub fn prefix(circuit: &Circuit, len: usize) -> Circuit {
    let mut out = Circuit::with_capacity(circuit.num_qubits(), len);
    for gate in circuit.gates().iter().take(len) {
        match gate.qubits {
            GateQubits::One(q) => out.push_single_qubit(gate.opcode, q),
            GateQubits::Two(a, b) => out.push_two_qubit(gate.opcode, a, b),
        }
        .expect("gates of a valid circuit stay valid in its prefix");
    }
    out
}
