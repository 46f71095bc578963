//! Compiler configuration: which policy fills each decision point.

use qccd_route::RouterPolicy;
use qccd_timing::TimingModel;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which ion moves when a two-qubit gate spans two traps.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DirectionPolicy {
    /// The baseline policy of Murali et al. (Listing 1 of the paper):
    /// compare the excess capacities of the two endpoint traps and move
    /// into the roomier one; on a tie, move the gate's first ion.
    ExcessCapacity,
    /// The paper's future-ops policy (§III-A): compute a move score from
    /// the near-future gates involving either ion and move toward the trap
    /// that satisfies more of them, with the §III-A3 proximity cutoff at
    /// the paper's sweet spot of 6.
    ///
    /// The cutoff distance is measured in **dependency-graph layers**
    /// between consecutive relevant gates. For the serial programs the
    /// paper illustrates with (Figs. 4-5) this is identical to counting
    /// intervening gates; for wide NISQ circuits (where one layer holds
    /// ~30 parallel gates) it is the scale-invariant reading under which a
    /// threshold of 6 reaches each ion's next few gates, as the paper's
    /// reported reductions require. The literal intervening-gate count is
    /// available as [`DirectionPolicy::FutureOpsGateDistance`] for
    /// ablation. Ties fall back to [`DirectionPolicy::ExcessCapacity`].
    FutureOps {
        /// Maximum layer gap between consecutive *relevant* gates before
        /// the scan stops.
        proximity: u32,
    },
    /// Future-ops with the proximity distance measured literally as the
    /// number of intervening gates in the planned order (the paper's text
    /// read word-for-word). On wide circuits a small threshold excludes
    /// essentially all future gates, degenerating to the excess-capacity
    /// fallback — kept for the ablation benches.
    FutureOpsGateDistance {
        /// Maximum number of intervening gates between consecutive
        /// relevant gates before the scan stops.
        proximity: u32,
    },
}

/// How a destination trap is chosen when evicting an ion from a full trap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RebalancePolicy {
    /// Baseline: scan traps from `T0` upward and take the first with excess
    /// capacity, routing the eviction with min-cost max-flow (§III-C1:
    /// "the search for a destination trap always starts with T0").
    FromTrapZero,
    /// The paper's Algorithm 2: among traps with excess capacity, pick the
    /// one nearest to the blocked trap on the topology.
    NearestNeighbor,
}

/// Which ion is evicted from a full trap during re-balancing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum IonSelection {
    /// Baseline: the ion at the end of the chain (cheapest to split off).
    ChainEnd,
    /// The paper's max-score heuristic (§III-C2): prefer ions with many
    /// remaining gates in the destination trap and few in the source trap,
    /// `score = wd·#dest − ws·#source`. On equal counts the weights shift
    /// to 0.49/0.51 so the score cannot be zero.
    MaxScore {
        /// Weight on gates in the destination trap (paper: 0.5).
        wd: f64,
        /// Weight on gates in the source trap (paper: 0.5).
        ws: f64,
    },
}

/// What the compile loop optimizes at every open decision.
///
/// The paper's heuristics minimize shuttle *count*; the hardware pays
/// timed *makespan*. PR 4 measured that post-compile batching finds
/// nothing left to fix on compiled traffic — the clock has to be optimized
/// at the point of choice, inside the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    /// The paper's objective: minimize shuttle count. Every decision rule
    /// is the published heuristic, bit-for-bit identical to the historical
    /// compiler. The default.
    Shuttles,
    /// Timeline-driven: thread an incremental
    /// [`LowerState`](qccd_timing::LowerState) through the compile loop
    /// and break the decisions the paper leaves open on *projected
    /// makespan* under [`CompilerConfig::timing`] — direction-score ties,
    /// re-balancing destination ties, and wide gate-free layers planned as
    /// multi-commodity flows instead of one move at a time. Routes are
    /// priced by timed segment duration (junction-aware) rather than unit
    /// hops.
    Clock,
}

/// How the clock objective prices speculative candidates.
///
/// Both modes are **bit-for-bit identical** in what they compute — the
/// `delta_properties` differential harness and the `paper_eval delta` CI
/// gate pin the equality — so the choice is purely a speed/oracle knob.
/// Meaningless under [`Objective::Shuttles`] (nothing is speculated).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScoreMode {
    /// Full re-lower oracle: replay the entire committed schedule plus
    /// the candidate from the initial mapping — O(n) per candidate,
    /// quadratic over the compile loop. Kept as the differential
    /// reference the delta path is validated against.
    Full,
    /// O(delta): price the candidate by touching only the trap clocks and
    /// ion availability it uses, with undo records instead of a cloned
    /// fold ([`DeltaScorer`](qccd_timing::DeltaScorer)). The default.
    #[default]
    Delta,
}

/// How ions are initially placed into traps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MappingPolicy {
    /// Fill traps in qubit order, `total − comm` ions per trap.
    RoundRobin,
    /// The "popular greedy initial mapping policy \[14\]" both compilers use
    /// (§IV-E3): place qubits one at a time into the non-full trap with the
    /// highest interaction weight to the qubits already there.
    GreedyInteraction,
    /// Uniform random placement (load-balanced), seeded — the §IV-E3
    /// "different initial mapping policies can be explored" ablation's
    /// pessimistic end.
    RandomBalanced {
        /// RNG seed; placement is deterministic in it.
        seed: u64,
    },
}

/// Full compiler configuration.
///
/// Use [`CompilerConfig::baseline`] / [`CompilerConfig::optimized`] for the
/// paper's two comparison points, or toggle fields individually for
/// ablation studies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompilerConfig {
    /// Shuttle-direction policy.
    pub direction: DirectionPolicy,
    /// Enable opportunistic gate re-ordering (§III-B, Algorithm 1).
    pub reorder: bool,
    /// Re-balancing destination policy.
    pub rebalance: RebalancePolicy,
    /// Re-balancing ion-selection policy.
    pub ion_selection: IonSelection,
    /// Initial mapping policy.
    pub mapping: MappingPolicy,
    /// Shuttle routing and transport scheduling policy
    /// ([`RouterPolicy::Serial`] reproduces the paper's one-ion-at-a-time
    /// executor; [`RouterPolicy::Congestion`] prices routes by congestion
    /// and trap fullness and packs transport into concurrent rounds).
    pub router: RouterPolicy,
    /// Lookahead round packing: first-fit backfill of shuttle hops into
    /// earlier compatible rounds of the same gate-free run
    /// (`TransportSchedule::pack_lookahead`). Only meaningful with the
    /// congestion router; the serial router's one-hop rounds are the
    /// paper's executor and stay untouched. Off by default.
    pub lookahead: bool,
    /// Device timing model used to lower the compiled schedule into the
    /// timed event timeline attached to every
    /// [`CompileResult`](crate::CompileResult). Defaults to
    /// [`TimingModel::ideal`] — the uniform-hop model matching the paper's
    /// shuttle counting.
    pub timing: TimingModel,
    /// What the compile loop optimizes at open decision points
    /// ([`Objective::Shuttles`] default — paper parity;
    /// [`Objective::Clock`] scores direction/rebalance/layer decisions on
    /// the projected device clock under [`timing`](CompilerConfig::timing)).
    pub objective: Objective,
    /// How [`Objective::Clock`] prices speculative candidates: the O(delta)
    /// scorer (default) or the O(suffix) clone-and-re-lower oracle. The
    /// two are bit-for-bit identical; `Full` exists as the differential
    /// reference. Ignored under [`Objective::Shuttles`].
    #[serde(default)]
    pub score_mode: ScoreMode,
    /// Threads for `compile_clock` (`--jobs`): at 2 or more its two arms
    /// compile concurrently, at 1 (the default) one after the other. Each
    /// arm is an independent deterministic compile, so every width gives
    /// bit-for-bit identical output. Nothing else reads it.
    #[serde(default = "default_jobs")]
    pub jobs: usize,
}

/// Serde default for [`CompilerConfig::jobs`]: sequential.
fn default_jobs() -> usize {
    1
}

impl CompilerConfig {
    /// The paper's default proximity parameter (§III-A3).
    pub const DEFAULT_PROXIMITY: u32 = 6;

    /// The baseline compiler of Murali et al. (ISCA'20) as characterised in
    /// §III of the paper.
    pub fn baseline() -> Self {
        CompilerConfig {
            direction: DirectionPolicy::ExcessCapacity,
            reorder: false,
            rebalance: RebalancePolicy::FromTrapZero,
            ion_selection: IonSelection::ChainEnd,
            mapping: MappingPolicy::GreedyInteraction,
            router: RouterPolicy::Serial,
            lookahead: false,
            timing: TimingModel::ideal(),
            objective: Objective::Shuttles,
            score_mode: ScoreMode::Delta,
            jobs: default_jobs(),
        }
    }

    /// The paper's optimized compiler: all three heuristics enabled with
    /// the published parameters.
    pub fn optimized() -> Self {
        CompilerConfig {
            direction: DirectionPolicy::FutureOps {
                proximity: Self::DEFAULT_PROXIMITY,
            },
            reorder: true,
            rebalance: RebalancePolicy::NearestNeighbor,
            ion_selection: IonSelection::MaxScore { wd: 0.5, ws: 0.5 },
            mapping: MappingPolicy::GreedyInteraction,
            router: RouterPolicy::Serial,
            lookahead: false,
            timing: TimingModel::ideal(),
            objective: Objective::Shuttles,
            score_mode: ScoreMode::Delta,
            jobs: default_jobs(),
        }
    }

    /// The optimized compiler with a non-default proximity parameter
    /// (for the §III-A3 design-parameter sweep).
    pub fn optimized_with_proximity(proximity: u32) -> Self {
        CompilerConfig {
            direction: DirectionPolicy::FutureOps { proximity },
            ..Self::optimized()
        }
    }

    /// The given configuration with the congestion-aware router and
    /// concurrent transport scheduling enabled.
    pub fn with_router(self, router: RouterPolicy) -> Self {
        CompilerConfig { router, ..self }
    }

    /// The given configuration with lookahead round packing toggled.
    pub fn with_lookahead(self, lookahead: bool) -> Self {
        CompilerConfig { lookahead, ..self }
    }

    /// The given configuration with a different device timing model.
    pub fn with_timing(self, timing: TimingModel) -> Self {
        CompilerConfig { timing, ..self }
    }

    /// The given configuration with a different compile-loop objective.
    pub fn with_objective(self, objective: Objective) -> Self {
        CompilerConfig { objective, ..self }
    }

    /// The given configuration with a different speculative scoring mode
    /// (clock objective only; see [`ScoreMode`]).
    pub fn with_score_mode(self, score_mode: ScoreMode) -> Self {
        CompilerConfig { score_mode, ..self }
    }

    /// The given configuration with a different [`jobs`](Self::jobs)
    /// width (`--jobs`; 0 is normalized to 1). Output is bit-for-bit
    /// identical at every width.
    pub fn with_jobs(self, jobs: usize) -> Self {
        CompilerConfig {
            jobs: jobs.max(1),
            ..self
        }
    }
}

impl Default for CompilerConfig {
    fn default() -> Self {
        Self::optimized()
    }
}

impl fmt::Display for CompilerConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dir = match self.direction {
            DirectionPolicy::ExcessCapacity => "ec".to_owned(),
            DirectionPolicy::FutureOps { proximity } => format!("future-ops(p={proximity})"),
            DirectionPolicy::FutureOpsGateDistance { proximity } => {
                format!("future-ops-gatedist(p={proximity})")
            }
        };
        let reb = match self.rebalance {
            RebalancePolicy::FromTrapZero => "trap0",
            RebalancePolicy::NearestNeighbor => "nn",
        };
        let ion = match self.ion_selection {
            IonSelection::ChainEnd => "chain-end",
            IonSelection::MaxScore { .. } => "max-score",
        };
        write!(
            f,
            "dir={dir} reorder={} rebalance={reb} ion={ion} router={}",
            self.reorder, self.router
        )?;
        if self.lookahead {
            write!(f, "+lookahead")?;
        }
        if self.timing != TimingModel::ideal() {
            write!(f, " timing={}", self.timing)?;
        }
        if self.objective == Objective::Clock {
            write!(f, " objective=clock")?;
        }
        if self.score_mode == ScoreMode::Full {
            write!(f, " score=full")?;
        }
        if self.jobs != 1 {
            write!(f, " jobs={}", self.jobs)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper() {
        let b = CompilerConfig::baseline();
        assert_eq!(b.direction, DirectionPolicy::ExcessCapacity);
        assert!(!b.reorder);
        assert_eq!(b.rebalance, RebalancePolicy::FromTrapZero);

        let o = CompilerConfig::optimized();
        assert_eq!(o.direction, DirectionPolicy::FutureOps { proximity: 6 });
        assert!(o.reorder);
        assert_eq!(o.rebalance, RebalancePolicy::NearestNeighbor);
        assert_eq!(o.ion_selection, IonSelection::MaxScore { wd: 0.5, ws: 0.5 });
    }

    #[test]
    fn default_is_optimized() {
        assert_eq!(CompilerConfig::default(), CompilerConfig::optimized());
    }

    #[test]
    fn proximity_override() {
        let c = CompilerConfig::optimized_with_proximity(12);
        assert_eq!(c.direction, DirectionPolicy::FutureOps { proximity: 12 });
        assert!(c.reorder);
    }

    #[test]
    fn display_is_informative() {
        let s = CompilerConfig::optimized().to_string();
        assert!(s.contains("future-ops(p=6)"));
        assert!(s.contains("reorder=true"));
        assert!(s.contains("router=serial"));
    }

    #[test]
    fn timing_defaults_to_ideal_and_lookahead_off() {
        let c = CompilerConfig::optimized();
        assert_eq!(c.timing, TimingModel::ideal());
        assert!(!c.lookahead);
        // Defaults keep the display form unchanged from paper parity.
        assert!(!c.to_string().contains("timing="));
        let c = c
            .with_router(RouterPolicy::congestion())
            .with_lookahead(true)
            .with_timing(TimingModel::realistic());
        assert!(c.to_string().contains("+lookahead"));
        assert!(c.to_string().contains("timing=realistic"));
    }

    #[test]
    fn score_mode_defaults_to_delta_and_full_is_displayed() {
        let c = CompilerConfig::optimized();
        assert_eq!(c.score_mode, ScoreMode::Delta);
        assert!(!c.to_string().contains("score="));
        let c = c
            .with_objective(Objective::Clock)
            .with_score_mode(ScoreMode::Full);
        assert!(c.to_string().contains("objective=clock"));
        assert!(c.to_string().contains("score=full"));
        assert_eq!(ScoreMode::default(), ScoreMode::Delta);
    }

    #[test]
    fn jobs_defaults_to_sequential_and_is_overridable() {
        let c = CompilerConfig::optimized();
        assert_eq!(c.jobs, 1);
        assert!(!c.to_string().contains("jobs="));
        let c = c.with_jobs(4);
        assert_eq!(c.jobs, 4);
        assert!(c.to_string().contains("jobs=4"));
        assert_eq!(c.with_jobs(0).jobs, 1, "0 normalizes to sequential");
    }

    #[test]
    fn router_defaults_to_serial_and_is_overridable() {
        assert_eq!(CompilerConfig::baseline().router, RouterPolicy::Serial);
        assert_eq!(CompilerConfig::optimized().router, RouterPolicy::Serial);
        let c = CompilerConfig::optimized().with_router(RouterPolicy::congestion());
        assert!(c.router.is_congestion());
        assert!(c.to_string().contains("router=congestion(penalty=6)"));
    }
}
