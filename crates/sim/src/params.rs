//! Simulation parameters: heating and fidelity scaling.

use serde::{Deserialize, Serialize};

/// Error-physics constants for the simulator: heating rates and quanta,
/// the background error rate Γ, the shuttle-pulse loss and the motional
/// coupling scale.
///
/// Defaults are calibrated-plausible figures for surface-electrode
/// trapped-ion systems, in the ranges published by Murali et al. (ISCA'20)
/// and the experimental papers they calibrate against (\[9\], \[10\] in the
/// paper). The paper itself omits the exact values "for brevity".
/// Operation durations are not here: every replay reads them from one
/// [`TimingModel`](qccd_timing::TimingModel) ([`TimingModel::ideal`]
/// unless the caller passes another).
///
/// [`TimingModel::ideal`]: qccd_timing::TimingModel::ideal
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimParams {
    /// Background heating rate of a chain, quanta per second of trap-local
    /// time (the `Γτ` driver).
    pub background_heating_quanta_per_s: f64,
    /// Motional quanta deposited into the *source* chain by one
    /// split-and-depart (Fig. 3: splitting disturbs the remaining chain).
    pub split_heating_quanta: f64,
    /// Motional quanta added to the shuttled ion per transit segment
    /// (Fig. 3 MOVE: "q\[a1\] energy ^"); delivered to the destination chain
    /// at merge.
    pub move_heating_quanta: f64,
    /// Motional quanta deposited into the *destination* chain by one
    /// move-and-merge (Fig. 3: "Merging q\[a1\] increases chain-1's energy").
    pub merge_heating_quanta: f64,
    /// Motional quanta deposited into a chain by one intra-trap zone
    /// reorder (multi-zone machines only; zone moves never occur under the
    /// default single-zone layout).
    pub zone_move_heating_quanta: f64,
    /// Trap background error rate Γ, per µs, in the gate-fidelity model
    /// `F = 1 − Γτ − A(2n̄+1)`.
    pub gamma_per_us: f64,
    /// Infidelity of one complete shuttle hop (split + move + merge) as a
    /// direct multiplicative cost on program fidelity — transport pulses
    /// are lossy operations in their own right, before any heating effect.
    pub shuttle_infidelity: f64,
    /// Base scale of the motional-coupling factor `A`; the effective
    /// factor is `a0 · m / log2(m)` for an `m`-ion chain (§II-B3: "A is a
    /// scaling factor that varies as #qubits/log(#qubits)").
    pub motional_scale_a0: f64,
}

impl SimParams {
    /// The default calibration used throughout the evaluation harness.
    pub fn new() -> Self {
        SimParams {
            background_heating_quanta_per_s: 5.0,
            split_heating_quanta: 0.2,
            move_heating_quanta: 0.1,
            merge_heating_quanta: 0.4,
            zone_move_heating_quanta: 0.05,
            gamma_per_us: 1e-6,
            shuttle_infidelity: 3.5e-3,
            motional_scale_a0: 1.5e-6,
        }
    }

    /// Validates that all parameters are finite and non-negative (and the
    /// per-hop shuttle infidelity below 1).
    pub fn is_valid(&self) -> bool {
        if self.shuttle_infidelity.partial_cmp(&1.0) != Some(std::cmp::Ordering::Less) {
            return false;
        }
        let fields = [
            self.background_heating_quanta_per_s,
            self.split_heating_quanta,
            self.move_heating_quanta,
            self.merge_heating_quanta,
            self.zone_move_heating_quanta,
            self.gamma_per_us,
            self.shuttle_infidelity,
            self.motional_scale_a0,
        ];
        fields.iter().all(|v| v.is_finite() && *v >= 0.0)
    }
}

impl Default for SimParams {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert!(SimParams::default().is_valid());
    }

    #[test]
    fn invalid_params_detected() {
        let mut p = SimParams {
            gamma_per_us: -1.0,
            ..SimParams::default()
        };
        assert!(!p.is_valid());
        p.gamma_per_us = f64::NAN;
        assert!(!p.is_valid());
    }
}
