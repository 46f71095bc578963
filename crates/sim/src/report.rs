//! Simulation reports.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The outcome of replaying one schedule through the physical model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Product of all gate fidelities, in `[0, 1]` — the paper's "program
    /// fidelity" (Fig. 8 reports ratios of this between compilers). May
    /// underflow to `0.0` for deep noisy programs; use
    /// [`log_program_fidelity`](Self::log_program_fidelity) for ratios.
    pub program_fidelity: f64,
    /// Natural logarithm of the program fidelity, exact even when the
    /// product itself underflows. `f64::NEG_INFINITY` when any single gate
    /// hit fidelity 0.
    pub log_program_fidelity: f64,
    /// End-to-end execution time: the maximum trap-local clock, µs.
    pub makespan_us: f64,
    /// The timed event timeline's makespan under the active
    /// [`TimingModel`](qccd_timing::TimingModel), µs. Always equals
    /// [`makespan_us`](Self::makespan_us) — the physics replay walks the
    /// same timeline — and is reported separately so timed columns stay
    /// present and comparable across `ideal`/`realistic` runs.
    pub timed_makespan_us: f64,
    /// Shuttle hops replayed.
    pub shuttles: usize,
    /// Transport rounds replayed: equals `shuttles` under serial transport
    /// (one hop at a time); lower under
    /// [`simulate_timed`](crate::simulate_timed) whenever
    /// edge-disjoint hops shared a concurrent round.
    pub shuttle_depth: usize,
    /// Gates replayed.
    pub gates: usize,
    /// Intra-trap zone reorders replayed (multi-zone machines only; always
    /// zero under the default single-zone layout).
    pub zone_moves: usize,
    /// Junction endpoints (topology degree ≥ 3) crossed by all shuttle
    /// hops — the traffic the realistic timing model charges corner/swap
    /// time for.
    pub junction_crossings: usize,
    /// Mean motional mode `n̄` across *all* traps when the program ends — a
    /// direct readout of accumulated shuttle heating. Empty traps count as
    /// cold chains, so this dilutes on sparse machines; see
    /// [`final_mean_motional_mode_occupied`](Self::final_mean_motional_mode_occupied).
    pub final_mean_motional_mode: f64,
    /// Mean motional mode `n̄` over *occupied* chains only (traps holding
    /// at least one ion at program end). Equals
    /// [`final_mean_motional_mode`](Self::final_mean_motional_mode) when
    /// every trap is occupied; `0.0` when none is.
    pub final_mean_motional_mode_occupied: f64,
    /// The worst single gate fidelity observed.
    pub min_gate_fidelity: f64,
}

impl SimReport {
    /// Fidelity improvement of `self` over `other`, as the paper reports it
    /// ("22.68X"): `self.program_fidelity / other.program_fidelity`,
    /// computed in log space so it stays exact when both fidelities
    /// underflow `f64`.
    ///
    /// Returns `f64::INFINITY` if `other` has truly zero fidelity (a gate
    /// at fidelity 0) and `self` does not; `1.0` if both are zero.
    pub fn fidelity_improvement_over(&self, other: &SimReport) -> f64 {
        match (
            self.log_program_fidelity.is_infinite(),
            other.log_program_fidelity.is_infinite(),
        ) {
            (true, true) => 1.0,
            (false, true) => f64::INFINITY,
            (true, false) => 0.0,
            (false, false) => (self.log_program_fidelity - other.log_program_fidelity).exp(),
        }
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fidelity {:.3e}, makespan {:.1} us (timed {:.1} us), {} shuttles, {} gates, {} zone moves, final n̄ {:.2}",
            self.program_fidelity,
            self.makespan_us,
            self.timed_makespan_us,
            self.shuttles,
            self.gates,
            self.zone_moves,
            self.final_mean_motional_mode
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(fidelity: f64) -> SimReport {
        SimReport {
            program_fidelity: fidelity,
            log_program_fidelity: if fidelity == 0.0 {
                f64::NEG_INFINITY
            } else {
                fidelity.ln()
            },
            makespan_us: 100.0,
            timed_makespan_us: 100.0,
            shuttles: 1,
            shuttle_depth: 1,
            gates: 2,
            zone_moves: 0,
            junction_crossings: 0,
            final_mean_motional_mode: 0.5,
            final_mean_motional_mode_occupied: 0.5,
            min_gate_fidelity: fidelity,
        }
    }

    #[test]
    fn improvement_ratio() {
        let a = report(0.02);
        let b = report(0.001);
        assert!((a.fidelity_improvement_over(&b) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn improvement_handles_zero() {
        let z = report(0.0);
        let a = report(0.5);
        assert_eq!(a.fidelity_improvement_over(&z), f64::INFINITY);
        assert_eq!(z.fidelity_improvement_over(&z), 1.0);
    }

    #[test]
    fn display_is_compact() {
        let s = report(0.25).to_string();
        assert!(s.contains("2.5e-1") || s.contains("2.500e-1"), "{s}");
        assert!(s.contains("1 shuttles"));
        assert!(s.contains("timed 100.0 us"), "{s}");
        assert!(s.contains("0 zone moves"), "{s}");
    }
}
