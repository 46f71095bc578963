//! Timeline-driven transport packing for compiled QCCD programs.
//!
//! The compiler minimizes shuttle *count*; the hardware pays for shuttle
//! *depth on the device clock*. This crate is the post-compile optimizer
//! that closes that gap: it rewrites a [`CompileResult`] into a
//! provably-equivalent one — same gates in the same traps, same final ion
//! mapping — with a lower *timed makespan*, scored end to end with
//! `qccd-timing`'s ASAP lowering. Two passes:
//!
//! * **Cross-gate packing** — hoists shuttle hops across non-conflicting
//!   gates: a hop may overlap a gate executing in an uninvolved trap,
//!   which the in-run packers can never exploit because their rounds stop
//!   at every gate. Trap-disjointness is proved per crossed gate, per-ion
//!   hop order is preserved, and a no-credit capacity rule keeps the
//!   rewritten flat schedule serially valid.
//! * **Batched layer planning** — re-plans each gate-free run as a
//!   multi-commodity flow with `qccd-flow`'s
//!   [`CommodityRouter`](qccd_flow::CommodityRouter): every net-displaced
//!   ion becomes a commodity, paths come out pairwise edge-disjoint (so
//!   layers share rounds deliberately), net-zero eviction ping-pongs drop
//!   out, and conflicting commodities fall back to per-commodity routes. Each run's rewrite is accepted only if it
//!   replays legally and strictly beats the original run on the clock,
//!   scored by incremental re-lowering from a [`LowerState`] checkpoint.
//!
//! Candidates are held flat: their ops (the greedy repack borrows the
//! input's) and a [`FlatRounds`] each, one move list and one round-end
//! list instead of a vector per round. Only the winner becomes a
//! [`TransportSchedule`], and [`compile_packed`] drops the compile's
//! timeline while it packs, since packing reads only its makespan.
//!
//! Every candidate the passes produce is compared against the input under
//! the same [`TimingModel`]; [`pack`] returns the input unchanged whenever
//! no candidate strictly improves the timed makespan, so packing **never
//! regresses** the clock. The winning candidate is replay-validated
//! ([`validate_equivalent`]) and its rounds strict-validated before being
//! handed back — an invalid rewrite is a typed error, never a silent
//! fallback.
//!
//! # Example
//!
//! ```
//! use qccd_circuit::generators::qft;
//! use qccd_core::CompilerConfig;
//! use qccd_machine::MachineSpec;
//! use qccd_pack::compile_packed;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = qft(16);
//! let spec = MachineSpec::linear(3, 8, 2)?;
//! let (packed, stats) = compile_packed(&circuit, &spec, &CompilerConfig::optimized())?;
//! assert!(stats.packed_makespan_us <= stats.input_makespan_us);
//! assert_eq!(packed.timeline.makespan_us, stats.packed_makespan_us);
//! # Ok(())
//! # }
//! ```

mod cross_gate;
mod layers;
#[cfg(test)]
mod pack_oracle;
mod validate;

use cross_gate::{pack_cross_gate, CrossGatePacked};
use layers::plan_layers;
use qccd_circuit::Circuit;
use qccd_core::{compile, CompileError, CompileResult, CompilerConfig, Objective, RouterPolicy};
use qccd_machine::{InitialMapping, IonId, MachineSpec, Operation, Schedule};
use qccd_route::{FlatRounds, TransportError, TransportSchedule};

/// Rewrite candidates the packer lowered and scored against the input.
static PACK_CANDIDATES: qccd_obs::Counter = qccd_obs::Counter::new("pack.candidates_tried");
/// Candidates that strictly beat the input on the clock and were adopted.
static PACK_ADOPTED: qccd_obs::Counter = qccd_obs::Counter::new("pack.candidates_adopted");
use qccd_timing::{lower, LowerError, LowerState, Timeline, TimingModel};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::error::Error;
use std::fmt;

pub use validate::validate_equivalent;

/// How many rounds back the cross-gate first-fit scan looks. Bounds the
/// packer at O(schedule × window) time and O(window × traps) backfill
/// rows; it comfortably covers every gap the paper workloads exhibit.
const WINDOW: usize = 96;

/// Configuration of the packing passes: both always run, so the timing
/// model is the one setting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PackConfig {
    /// Timing model every candidate is scored under (and the returned
    /// timeline is lowered with).
    pub model: TimingModel,
}

impl PackConfig {
    /// The passes scored under `model`.
    pub fn for_model(model: TimingModel) -> Self {
        PackConfig { model }
    }

    /// Returns `self` unchanged. Packing runs on the calling thread;
    /// the only concurrency is [`compile_clock`]'s two-arm race, set by
    /// [`CompilerConfig::jobs`]. Kept so existing callers still build.
    pub fn with_jobs(self, _jobs: usize) -> Self {
        self
    }
}

impl Default for PackConfig {
    /// Realistic device timing.
    fn default() -> Self {
        Self::for_model(TimingModel::realistic())
    }
}

/// What packing did, and what it was worth on the device clock.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PackStats {
    /// Transport depth of the input result.
    pub input_depth: usize,
    /// Transport depth after packing (equals input when not improved).
    pub packed_depth: usize,
    /// Input timed makespan under the pack model, µs.
    pub input_makespan_us: f64,
    /// Packed timed makespan under the pack model, µs.
    pub packed_makespan_us: f64,
    /// Hops the winning candidate moved across at least one gate.
    pub hoisted_hops: usize,
    /// Gate-free runs rewritten by the batched layer planner.
    pub replanned_runs: usize,
    /// Shuttle hops eliminated by layer planning (net-zero walks).
    pub dropped_hops: usize,
    /// `true` when a candidate strictly beat the input and was adopted.
    pub improved: bool,
}

/// A packed program: the equivalent rewrite plus its timed lowering.
#[derive(Debug, Clone)]
pub struct Packed {
    /// The rewritten (or, when nothing improved, original) schedule.
    pub schedule: Schedule,
    /// Its transport rounds.
    pub transport: TransportSchedule,
    /// Its timeline under the pack model.
    pub timeline: Timeline,
    /// What happened.
    pub stats: PackStats,
}

/// Packs `result` into an equivalent program with minimal timed makespan
/// under `config.model`.
///
/// Candidates (the greedy in-run repack, then cross-gate packings of the
/// input and of its layer-planned rewrite, under both join policies) are
/// each scored right after they are built, by folding the timed lowering
/// for its makespan without storing a single event; only the running best
/// is kept. The best strict improvement wins, otherwise the input is
/// returned unchanged (`stats.improved == false`). Only the winner is
/// lowered into a [`Timeline`], once, and it is fully validated: replay
/// equivalence against the input schedule, strict transport-round
/// validation, and timeline resource validation.
///
/// # Errors
///
/// * [`PackError::Lower`] — a candidate (or the input) failed to lower;
///   the input result was not a valid compile artifact.
/// * [`PackError::InvalidPacked`] / [`PackError::GateSequenceDiverged`] /
///   [`PackError::FinalMappingDiverged`] / [`PackError::Transport`] — the
///   winning candidate failed validation (a packer bug, never silent).
pub fn pack(
    result: &CompileResult,
    circuit: &Circuit,
    spec: &MachineSpec,
    config: &PackConfig,
) -> Result<Packed, PackError> {
    let _phase = qccd_obs::span("pack");
    // When the compile was lowered under the scoring model, its attached
    // timeline *is* the input lowering — skip the redundant O(n) re-lower.
    let input_timeline = if result.timing == config.model {
        Cow::Borrowed(&result.timeline)
    } else {
        Cow::Owned(lower(
            &result.schedule,
            Some(&result.transport),
            circuit,
            spec,
            &config.model,
        )?)
    };
    let input = Input {
        schedule: &result.schedule,
        transport: &result.transport,
        makespan_us: input_timeline.makespan_us,
    };
    if let Some(packed) = input.best_rewrite(circuit, spec, &config.model)? {
        return Ok(packed);
    }
    Ok(Packed {
        schedule: result.schedule.clone(),
        transport: result.transport.clone(),
        stats: input.unimproved(),
        timeline: input_timeline.into_owned(),
    })
}

/// The program [`pack`] rewrites: a compiled schedule, its rounds and
/// their timed makespan under the pack model.
struct Input<'a> {
    schedule: &'a Schedule,
    transport: &'a TransportSchedule,
    makespan_us: f64,
}

impl<'a> Input<'a> {
    /// Builds and scores every candidate, keeping only the running best,
    /// and returns the best strict improvement, lowered and validated; or
    /// `None` when no candidate beats the input.
    fn best_rewrite(
        &self,
        circuit: &Circuit,
        spec: &MachineSpec,
        model: &TimingModel,
    ) -> Result<Option<Packed>, PackError> {
        let mapping = &self.schedule.initial_mapping;
        let mut best: Option<Candidate<'a>> = None;
        let mut offer = |rewrite: Rewrite<'a>| -> Result<(), PackError> {
            PACK_CANDIDATES.incr();
            let makespan_us = rewrite.makespan_us(mapping, circuit, spec, model)?;
            keep_faster(
                &mut best,
                Candidate {
                    rewrite,
                    makespan_us,
                },
                |c| c.makespan_us,
            );
            Ok(())
        };

        // The greedy in-run repack rides along: the lookahead packer
        // optimizes *depth* and can be marginally slower on the clock
        // (fewer, wider rounds can couple resources), so the packed result
        // must never lose to either in-run packer.
        if let Ok(greedy) = TransportSchedule::pack_concurrent(self.schedule, spec) {
            offer(Rewrite {
                ops: Cow::Borrowed(&self.schedule.operations),
                rounds: FlatRounds::from(greedy),
                hoisted_hops: 0,
                replanned_runs: 0,
                dropped_hops: 0,
            })?;
        }
        for rewrite in cross_gate_rewrites(self.schedule, spec) {
            offer(rewrite)?;
        }
        let planned = plan_layers(self.schedule, self.transport, circuit, spec, model)?;
        // A plan that changed no op yields the input's own cross-gate
        // rewrites, already offered above: they tie, so they never win.
        if planned.replanned_runs > 0 && planned.ops != self.schedule.operations {
            let schedule = Schedule::new(mapping.clone(), planned.ops);
            for mut rewrite in cross_gate_rewrites(&schedule, spec) {
                rewrite.replanned_runs = planned.replanned_runs;
                rewrite.dropped_hops = planned.dropped_hops;
                offer(rewrite)?;
            }
        }

        let Some(Candidate {
            rewrite: c,
            makespan_us,
        }) = best.filter(|c| c.makespan_us < self.makespan_us)
        else {
            return Ok(None);
        };
        PACK_ADOPTED.incr();
        // Only the winner becomes a program and is lowered into a
        // timeline; its fold ends on the clocks the scoring fold ended on.
        let schedule = Schedule::new(mapping.clone(), c.ops.into_owned());
        let transport = c.rounds.into_schedule();
        let timeline = lower(&schedule, Some(&transport), circuit, spec, model)?;
        debug_assert_eq!(timeline.makespan_us.to_bits(), makespan_us.to_bits());
        {
            let _phase = qccd_obs::span("pack-validate");
            validate_equivalent(self.schedule, &schedule, circuit, spec)?;
            transport
                .validate(&schedule, spec)
                .map_err(PackError::Transport)?;
            timeline
                .validate()
                .map_err(|e| PackError::InvalidPacked(e.to_string()))?;
        }
        let stats = PackStats {
            input_depth: self.transport.depth(),
            packed_depth: transport.depth(),
            input_makespan_us: self.makespan_us,
            packed_makespan_us: timeline.makespan_us,
            hoisted_hops: c.hoisted_hops,
            replanned_runs: c.replanned_runs,
            dropped_hops: c.dropped_hops,
            improved: true,
        };
        Ok(Some(Packed {
            schedule,
            transport,
            timeline,
            stats,
        }))
    }

    /// The stats of a pack that kept the input.
    fn unimproved(&self) -> PackStats {
        PackStats {
            input_depth: self.transport.depth(),
            packed_depth: self.transport.depth(),
            input_makespan_us: self.makespan_us,
            packed_makespan_us: self.makespan_us,
            improved: false,
            ..PackStats::default()
        }
    }
}

/// One rewrite of the input program, before it is lowered: its ops (the
/// greedy repack borrows the input's) and its rounds, held flat.
struct Rewrite<'a> {
    ops: Cow<'a, [Operation]>,
    rounds: FlatRounds,
    hoisted_hops: usize,
    replanned_runs: usize,
    dropped_hops: usize,
}

impl Rewrite<'_> {
    /// The rewrite's timed makespan under `model`, folded through a no-op
    /// sink: it stores no event, and equals the makespan of its
    /// [`lower`]ed timeline bit for bit.
    fn makespan_us(
        &self,
        mapping: &InitialMapping,
        circuit: &Circuit,
        spec: &MachineSpec,
        model: &TimingModel,
    ) -> Result<f64, LowerError> {
        let _phase = qccd_obs::span("lowering");
        let mut fold = LowerState::new(mapping, spec, model)?;
        fold.advance_rounds(&self.ops, &self.rounds, circuit, spec, &mut |_| {})?;
        Ok(fold.makespan_us())
    }
}

/// A rewrite plus its timed makespan under the pack model.
struct Candidate<'a> {
    rewrite: Rewrite<'a>,
    makespan_us: f64,
}

/// The share-only cross-gate packing of `base`, then the full one unless
/// it emits the same program. The two frequently coincide; comparing
/// ops+rounds is O(n) while lowering a duplicate costs several O(n)
/// passes, and an identical candidate ties on every selection key, so
/// dropping it cannot change which candidate wins.
fn cross_gate_rewrites(base: &Schedule, spec: &MachineSpec) -> Vec<Rewrite<'static>> {
    let (cap, num_traps) = (spec.total_capacity(), spec.num_traps() as usize);
    let share_only = pack_cross_gate(base, cap, num_traps, WINDOW, true);
    let full = pack_cross_gate(base, cap, num_traps, WINDOW, false);
    let full = (full != share_only).then_some(full);
    [Some(share_only), full]
        .into_iter()
        .flatten()
        .map(|p: CrossGatePacked| Rewrite {
            ops: Cow::Owned(p.ops),
            rounds: p.rounds,
            hoisted_hops: p.hoisted_hops,
            replanned_runs: 0,
            dropped_hops: 0,
        })
        .collect()
}

/// Replaces the running `best` with `candidate` only when `candidate` is
/// strictly faster, so the first of equal minimums stays — the element
/// `Iterator::min_by` would pick over the same sequence.
fn keep_faster<T>(best: &mut Option<T>, candidate: T, makespan: impl Fn(&T) -> f64) {
    if best
        .as_ref()
        .is_none_or(|b| makespan(&candidate) < makespan(b))
    {
        *best = Some(candidate);
    }
}

/// Compiles `circuit` with the packed transport stack: the congestion
/// router with lookahead packing, followed by [`pack`] under the
/// compiler's configured timing model (`--router packed` in the CLI).
///
/// A serial `config.router` is upgraded to the congestion router — the
/// packed stack builds on concurrent transport; every other field of
/// `config` is honoured as-is. The returned result carries the packed
/// schedule, transport and timeline (via
/// [`CompileResult::with_transport`]) whenever packing improved the timed
/// makespan, and the plain lookahead result otherwise.
///
/// Packing reads only the compile's timed makespan, so the compile's
/// timeline is dropped while the candidates are built; when none wins,
/// the input is lowered again — the same fold, so the same timeline, bit
/// for bit.
///
/// # Errors
///
/// [`PackCompileError::Compile`] from the compiler, or
/// [`PackCompileError::Pack`] from the packer's validators.
pub fn compile_packed(
    circuit: &Circuit,
    spec: &MachineSpec,
    config: &CompilerConfig,
) -> Result<(CompileResult, PackStats), PackCompileError> {
    let router = if config.router.is_congestion() {
        config.router
    } else {
        RouterPolicy::congestion()
    };
    let config = config.with_router(router).with_lookahead(true);
    let mut result = compile(circuit, spec, &config).map_err(PackCompileError::Compile)?;
    let model = config.timing;
    debug_assert!(
        result.timing == model,
        "the compile lowers under its config's model"
    );
    let makespan_us = std::mem::take(&mut result.timeline).makespan_us;
    let _phase = qccd_obs::span("pack");
    let input = Input {
        schedule: &result.schedule,
        transport: &result.transport,
        makespan_us,
    };
    match input
        .best_rewrite(circuit, spec, &model)
        .map_err(PackCompileError::Pack)?
    {
        Some(packed) => {
            let stats = packed.stats;
            Ok((
                result.with_transport(packed.schedule, packed.transport, packed.timeline),
                stats,
            ))
        }
        None => {
            let stats = input.unimproved();
            result.timeline = lower(
                &result.schedule,
                Some(&result.transport),
                circuit,
                spec,
                &model,
            )
            .map_err(|e| PackCompileError::Pack(e.into()))?;
            Ok((result, stats))
        }
    }
}

/// What the clock-objective pipeline did, and what it was worth.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ClockStats {
    /// Timed makespan of the default-objective packed stack (the bar the
    /// clock objective has to beat), µs.
    pub packed_makespan_us: f64,
    /// Timed makespan of the clock-objective candidate after the same
    /// packing passes, µs.
    pub clock_makespan_us: f64,
    /// Timed makespan of the chosen result
    /// (`min(packed, clock)` — the pipeline never regresses), µs.
    pub chosen_makespan_us: f64,
    /// Open decisions the clock compile re-arbitrated on projected
    /// makespan (direction-score ties + re-balancing destination ties).
    pub clock_ties: usize,
    /// Gate-free layers the clock compile planned as batched
    /// multi-commodity flows.
    pub batched_layers: usize,
    /// Shuttle hops emitted by those batched layers.
    pub batched_hops: usize,
    /// `true` when the clock candidate strictly beat the packed stack on
    /// the timed makespan and was adopted.
    pub improved: bool,
}

/// Compiles `circuit` with the **clock objective** end to end: the
/// timed compile loop (incremental [`LowerState`] scoring of direction
/// ties, re-balancing destination ties, and batched multi-commodity
/// layers — `qccd-core`'s [`Objective::Clock`]) on the packed transport
/// stack, raced against the default-objective packed stack
/// ([`compile_packed`]) under the same timing model. The result with the
/// lower timed makespan wins; on a dead heat the
/// default-objective result is kept, so the pipeline provably **never
/// regresses** the packed stack (`--objective clock` in the CLI).
///
/// Both candidates are fully validated by their own pipelines (replay
/// equivalence, strict transport rounds, timeline resources).
///
/// # Errors
///
/// As [`compile_packed`], for either candidate — a clock-objective
/// compile or validation failure is a typed error, never a silent
/// fallback.
///
/// With `config.jobs >= 2` the two arms compile concurrently (the
/// default-objective base on a scoped worker, the clock candidate on the
/// caller's thread). Each arm is an independent deterministic compile and
/// the race compares their finished results, so any `jobs` width returns
/// bit-for-bit the same result and stats as `jobs = 1`; on error the
/// base arm's error wins, matching the sequential order.
pub fn compile_clock(
    circuit: &Circuit,
    spec: &MachineSpec,
    config: &CompilerConfig,
) -> Result<(CompileResult, ClockStats), PackCompileError> {
    if config.jobs >= 2 {
        let base_config = config.with_objective(Objective::Shuttles);
        let clock_config = config.with_objective(Objective::Clock);
        let (base, cand) = std::thread::scope(|scope| {
            let base_arm = scope.spawn(|| compile_packed(circuit, spec, &base_config));
            let cand = compile_packed(circuit, spec, &clock_config);
            let base = match base_arm.join() {
                Ok(r) => r,
                Err(panic) => std::panic::resume_unwind(panic),
            };
            (base, cand)
        });
        let (base, _) = base?;
        let (cand, _) = cand?;
        Ok(crown(base, cand))
    } else {
        let (base, _) = compile_packed(circuit, spec, &config.with_objective(Objective::Shuttles))?;
        race_clock(base, circuit, spec, config)
    }
}

/// [`compile_clock`] with the default-objective packed `base` supplied by
/// the caller — for harnesses that already compiled the packed stack
/// under the same `config`/timing model and should not pay for it twice.
/// Only the clock-objective candidate is compiled here; the race and the
/// never-regress guarantee are identical.
///
/// # Errors
///
/// As [`compile_packed`], for the clock candidate.
pub fn race_clock(
    base: CompileResult,
    circuit: &Circuit,
    spec: &MachineSpec,
    config: &CompilerConfig,
) -> Result<(CompileResult, ClockStats), PackCompileError> {
    let (cand, _) = compile_packed(circuit, spec, &config.with_objective(Objective::Clock))?;
    Ok(crown(base, cand))
}

/// The race decision shared by [`compile_clock`]'s sequential and
/// concurrent arms: the lower timed makespan wins, the base keeps dead
/// heats (never-regress).
fn crown(base: CompileResult, cand: CompileResult) -> (CompileResult, ClockStats) {
    let (packed_makespan_us, clock_makespan_us) =
        (base.timeline.makespan_us, cand.timeline.makespan_us);
    let improved = clock_makespan_us < packed_makespan_us;
    let stats = ClockStats {
        packed_makespan_us,
        clock_makespan_us,
        chosen_makespan_us: if improved {
            clock_makespan_us
        } else {
            packed_makespan_us
        },
        clock_ties: cand.stats.clock_ties,
        batched_layers: cand.stats.batched_layers,
        batched_hops: cand.stats.batched_hops,
        improved,
    };
    (if improved { cand } else { base }, stats)
}

/// A violated packing invariant.
#[derive(Debug, Clone, PartialEq)]
pub enum PackError {
    /// A candidate failed to lower onto the device clock.
    Lower(LowerError),
    /// The packed transport rounds failed strict validation.
    Transport(TransportError),
    /// The packed schedule failed replay validation (message form of the
    /// underlying machine/schedule error).
    InvalidPacked(String),
    /// The packed program runs a different gate sequence.
    GateSequenceDiverged {
        /// Index of the first diverging gate.
        index: usize,
    },
    /// The packed program leaves an ion in a different trap.
    FinalMappingDiverged {
        /// The diverged ion.
        ion: IonId,
    },
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackError::Lower(e) => write!(f, "candidate failed to lower: {e}"),
            PackError::Transport(e) => write!(f, "packed rounds invalid: {e}"),
            PackError::InvalidPacked(msg) => write!(f, "packed schedule invalid: {msg}"),
            PackError::GateSequenceDiverged { index } => {
                write!(f, "packed gate sequence diverges at gate {index}")
            }
            PackError::FinalMappingDiverged { ion } => {
                write!(f, "packed replay leaves {ion} in a different trap")
            }
        }
    }
}

impl Error for PackError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PackError::Lower(e) => Some(e),
            PackError::Transport(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LowerError> for PackError {
    fn from(e: LowerError) -> Self {
        PackError::Lower(e)
    }
}

/// Compile-then-pack error.
#[derive(Debug, Clone, PartialEq)]
pub enum PackCompileError {
    /// Compilation failed.
    Compile(CompileError),
    /// Packing (validation) failed.
    Pack(PackError),
}

impl fmt::Display for PackCompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackCompileError::Compile(e) => write!(f, "{e}"),
            PackCompileError::Pack(e) => write!(f, "{e}"),
        }
    }
}

impl Error for PackCompileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PackCompileError::Compile(e) => Some(e),
            PackCompileError::Pack(e) => Some(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_circuit::generators::{qaoa, random_circuit};
    use qccd_core::compile;

    fn packed_config() -> CompilerConfig {
        CompilerConfig::optimized()
            .with_router(RouterPolicy::congestion())
            .with_lookahead(true)
    }

    #[test]
    fn pack_never_regresses_the_timed_makespan() {
        let spec = MachineSpec::linear(3, 8, 2).unwrap();
        for seed in [1u64, 7, 23] {
            let circuit = random_circuit(12, 80, seed);
            let result = compile(&circuit, &spec, &packed_config()).unwrap();
            let packed = pack(&result, &circuit, &spec, &PackConfig::default()).unwrap();
            assert!(
                packed.stats.packed_makespan_us <= packed.stats.input_makespan_us,
                "seed {seed}: packed {} > input {}",
                packed.stats.packed_makespan_us,
                packed.stats.input_makespan_us
            );
            assert_eq!(packed.timeline.makespan_us, packed.stats.packed_makespan_us);
        }
    }

    #[test]
    fn packed_program_is_equivalent_and_strictly_valid() {
        let spec = MachineSpec::linear(3, 8, 2).unwrap();
        let circuit = qaoa(14, 4, 3);
        let result = compile(&circuit, &spec, &packed_config()).unwrap();
        let packed = pack(&result, &circuit, &spec, &PackConfig::default()).unwrap();
        validate_equivalent(&result.schedule, &packed.schedule, &circuit, &spec).unwrap();
        packed.transport.validate(&packed.schedule, &spec).unwrap();
        packed.timeline.validate().unwrap();
        assert_eq!(packed.schedule.stats().gates, result.schedule.stats().gates);
        assert!(packed.schedule.stats().shuttles <= result.schedule.stats().shuttles);
    }

    #[test]
    fn compile_packed_upgrades_serial_router_and_reports_stats() {
        let spec = MachineSpec::linear(3, 8, 2).unwrap();
        let circuit = qaoa(16, 4, 5);
        let (result, stats) =
            compile_packed(&circuit, &spec, &CompilerConfig::optimized()).unwrap();
        assert_eq!(result.stats.transport_depth, result.transport.depth());
        assert!(stats.packed_makespan_us <= stats.input_makespan_us);
        if stats.improved {
            assert!(stats.packed_makespan_us < stats.input_makespan_us);
        }
        // The result's own timeline matches the packed lowering model
        // (the compiler config's timing — ideal here) only when packing
        // did not improve; when it did, the timeline is the packed one.
        result
            .transport
            .validate_relaxed(&result.schedule, &spec)
            .unwrap();
    }

    #[test]
    fn compile_clock_never_regresses_the_packed_stack() {
        let spec = MachineSpec::linear(3, 8, 2).unwrap();
        for seed in [2u64, 11, 29] {
            let circuit = random_circuit(14, 90, seed);
            let config = CompilerConfig::optimized().with_timing(TimingModel::realistic());
            let (result, stats) = compile_clock(&circuit, &spec, &config).unwrap();
            assert!(
                stats.chosen_makespan_us <= stats.packed_makespan_us,
                "seed {seed}: chosen {} > packed {}",
                stats.chosen_makespan_us,
                stats.packed_makespan_us
            );
            assert_eq!(result.timeline.makespan_us, stats.chosen_makespan_us);
            assert_eq!(
                stats.improved,
                stats.clock_makespan_us < stats.packed_makespan_us
            );
            // Whichever candidate won, it carries a fully validated
            // transport (relaxed: lookahead may reorder within runs).
            result
                .transport
                .validate_relaxed(&result.schedule, &spec)
                .unwrap();
            result.timeline.validate().unwrap();
        }
    }

    /// The selection `pack` ran before it streamed: collect every
    /// candidate, take the first minimum, keep it only when it beats the
    /// input.
    fn collect_min_by_filter(makespans: &[f64], input: f64) -> Option<usize> {
        makespans
            .iter()
            .copied()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .filter(|&(_, m)| m < input)
            .map(|(i, _)| i)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]
        /// Streaming `keep_faster` over the candidates, then the `< input`
        /// filter, picks the oracle's candidate. Makespans come from a
        /// handful of values so ties, with each other and with the input,
        /// are common.
        #[test]
        fn streaming_selection_matches_collect_then_min_by(
            makespans in proptest::collection::vec(0u8..5, 0..8),
            input in 0u8..6,
        ) {
            let makespans: Vec<f64> = makespans.into_iter().map(f64::from).collect();
            let input = f64::from(input);
            let mut best: Option<(usize, f64)> = None;
            for (i, &m) in makespans.iter().enumerate() {
                keep_faster(&mut best, (i, m), |c| c.1);
            }
            let streamed = best.filter(|&(_, m)| m < input).map(|(i, _)| i);
            proptest::prop_assert_eq!(streamed, collect_min_by_filter(&makespans, input));
        }
    }
}
