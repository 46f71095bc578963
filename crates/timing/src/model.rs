//! The device timing model: per-operation durations.

use qccd_machine::{TrapId, TrapTopology};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Per-operation durations of one QCCD device, in microseconds.
///
/// Two presets are provided:
///
/// * [`TimingModel::ideal`] — the uniform-hop model the paper's evaluation
///   charges: every shuttle hop costs `split + move + merge` regardless of
///   where it runs, junctions are free, and zone moves are instantaneous.
///   The simulator runs on it whenever no model is given.
/// * [`TimingModel::realistic`] — QCCDSim-style constants (Murali et al.,
///   ISCA'20): linear-segment transport at a finite speed, a corner/swap
///   cost for every T-/X-junction crossed, and a real cost for intra-trap
///   zone reorders.
///
/// A shuttle hop's duration is
/// `split + segment/speed + junctions·junction_cross + merge`, where
/// `junctions` counts the hop's endpoints with topology degree ≥ 3. A
/// concurrent transport round costs its *critical path*: the slowest
/// member hop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingModel {
    /// Single-qubit gate duration, µs.
    pub one_qubit_gate_us: f64,
    /// Two-qubit MS-gate base duration at chain length 2, µs.
    pub two_qubit_gate_base_us: f64,
    /// Fractional two-qubit gate slowdown per extra ion in the chain.
    pub gate_chain_slowdown: f64,
    /// Chain split duration, µs (the SPLIT step).
    pub split_us: f64,
    /// Chain merge duration, µs (the MERGE step).
    pub merge_us: f64,
    /// Physical length of one shuttle-path segment, µm.
    pub segment_um: f64,
    /// Linear transport speed along a segment, µm/µs.
    pub speed_um_per_us: f64,
    /// Corner/swap cost of negotiating one T- or X-junction (a hop
    /// endpoint with topology degree ≥ 3), µs.
    pub junction_cross_us: f64,
    /// Intra-trap zone reorder duration (moving an ion from the
    /// storage/loading zone into the gate zone), µs.
    pub zone_move_us: f64,
}

impl TimingModel {
    /// The uniform-hop preset: the durations the paper's evaluation
    /// charges and every replay uses unless given another model. A
    /// two-qubit gate takes 100 µs at chain length 2 (5% slower per extra
    /// ion), a one-qubit gate 10 µs, and a shuttle hop `80 + 5 + 80` µs of
    /// split, move and merge. The segment is 5 µm long at 1 µm/µs, so
    /// `segment_move_us()` is bit-for-bit 5 µs; junctions and zone moves
    /// are free.
    pub fn ideal() -> Self {
        TimingModel {
            one_qubit_gate_us: 10.0,
            two_qubit_gate_base_us: 100.0,
            gate_chain_slowdown: 0.05,
            split_us: 80.0,
            merge_us: 80.0,
            segment_um: 5.0,
            speed_um_per_us: 1.0,
            junction_cross_us: 0.0,
            zone_move_us: 0.0,
        }
    }

    /// QCCDSim-style constants: 790 µm segments at 7.9 µm/µs (100 µs per
    /// straight segment), 120 µs per junction corner/swap, 40 µs per
    /// intra-trap zone reorder. Gate and split/merge durations match the
    /// ideal preset so differences isolate the transport model.
    pub fn realistic() -> Self {
        TimingModel {
            one_qubit_gate_us: 10.0,
            two_qubit_gate_base_us: 100.0,
            gate_chain_slowdown: 0.05,
            split_us: 80.0,
            merge_us: 80.0,
            segment_um: 790.0,
            speed_um_per_us: 7.9,
            junction_cross_us: 120.0,
            zone_move_us: 40.0,
        }
    }

    /// Duration of a one-qubit gate, µs.
    pub fn one_qubit_gate_us(&self) -> f64 {
        self.one_qubit_gate_us
    }

    /// Duration of a two-qubit gate in an `m`-ion chain, µs (longer chains
    /// have softer motional modes, hence slower gates).
    pub fn two_qubit_gate_us(&self, chain_len: u32) -> f64 {
        let extra = chain_len.saturating_sub(2) as f64;
        self.two_qubit_gate_base_us * (1.0 + self.gate_chain_slowdown * extra)
    }

    /// Transit time along one straight shuttle-path segment, µs.
    pub fn segment_move_us(&self) -> f64 {
        self.segment_um / self.speed_um_per_us
    }

    /// Number of junction endpoints (topology degree ≥ 3) a hop
    /// `from → to` negotiates.
    pub fn junctions_crossed(topology: &TrapTopology, from: TrapId, to: TrapId) -> u32 {
        u32::from(topology.is_junction(from)) + u32::from(topology.is_junction(to))
    }

    /// Full duration of one shuttle hop crossing `junctions` junction
    /// endpoints: `split + segment/speed + junctions·corner + merge`, µs.
    pub fn hop_us(&self, junctions: u32) -> f64 {
        self.split_us
            + (self.segment_move_us() + f64::from(junctions) * self.junction_cross_us)
            + self.merge_us
    }

    /// Duration of one intra-trap zone reorder, µs.
    pub fn zone_move_us(&self) -> f64 {
        self.zone_move_us
    }

    /// Validates that every constant is finite, non-negative, and the
    /// transport speed strictly positive.
    pub fn is_valid(&self) -> bool {
        let fields = [
            self.one_qubit_gate_us,
            self.two_qubit_gate_base_us,
            self.gate_chain_slowdown,
            self.split_us,
            self.merge_us,
            self.segment_um,
            self.speed_um_per_us,
            self.junction_cross_us,
            self.zone_move_us,
        ];
        fields.iter().all(|v| v.is_finite() && *v >= 0.0) && self.speed_um_per_us > 0.0
    }
}

impl Default for TimingModel {
    fn default() -> Self {
        Self::ideal()
    }
}

impl fmt::Display for TimingModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == TimingModel::ideal() {
            write!(f, "ideal")
        } else if *self == TimingModel::realistic() {
            write!(f, "realistic")
        } else {
            write!(
                f,
                "custom(hop {:.1}us, junction {:.1}us, zone {:.1}us)",
                self.hop_us(0),
                self.junction_cross_us,
                self.zone_move_us
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_machine::TrapTopology;

    #[test]
    fn ideal_hop_matches_uniform_arithmetic() {
        let m = TimingModel::ideal();
        // Bit-for-bit: 80 + 5 + 80, junctions free.
        assert_eq!(m.segment_move_us(), 5.0);
        assert_eq!(m.hop_us(0), 80.0 + 5.0 + 80.0);
        assert_eq!(m.hop_us(2), m.hop_us(0));
        assert_eq!(m.zone_move_us(), 0.0);
        assert!(m.is_valid());
        assert_eq!(m.to_string(), "ideal");
    }

    #[test]
    fn realistic_charges_junctions_and_zones() {
        let m = TimingModel::realistic();
        assert!((m.segment_move_us() - 100.0).abs() < 1e-9);
        assert!(m.hop_us(1) > m.hop_us(0));
        assert!((m.hop_us(2) - m.hop_us(0) - 240.0).abs() < 1e-9);
        assert!(m.zone_move_us() > 0.0);
        assert!(m.is_valid());
        assert_eq!(m.to_string(), "realistic");
    }

    #[test]
    fn gate_durations_scale_with_chain_length() {
        let m = TimingModel::ideal();
        assert_eq!(m.two_qubit_gate_us(2), 100.0);
        assert_eq!(m.two_qubit_gate_us(1), 100.0);
        assert!(m.two_qubit_gate_us(10) > m.two_qubit_gate_us(4));
    }

    #[test]
    fn junction_counting_uses_topology_degree() {
        let grid = TrapTopology::grid(3, 3);
        // Corner (0) to edge-midpoint (1): one junction endpoint.
        assert_eq!(
            TimingModel::junctions_crossed(&grid, TrapId(0), TrapId(1)),
            1
        );
        // Edge-midpoint (1) to centre (4): both are junctions.
        assert_eq!(
            TimingModel::junctions_crossed(&grid, TrapId(1), TrapId(4)),
            2
        );
        let line = TrapTopology::linear(4);
        assert_eq!(
            TimingModel::junctions_crossed(&line, TrapId(1), TrapId(2)),
            0
        );
    }

    #[test]
    fn invalid_models_detected() {
        let mut m = TimingModel::realistic();
        m.speed_um_per_us = 0.0;
        assert!(!m.is_valid());
        m = TimingModel::realistic();
        m.junction_cross_us = f64::NAN;
        assert!(!m.is_valid());
        m = TimingModel::realistic();
        m.split_us = -1.0;
        assert!(!m.is_valid());
    }

    #[test]
    fn display_distinguishes_custom_models() {
        let mut m = TimingModel::realistic();
        m.junction_cross_us = 33.0;
        assert!(m.to_string().starts_with("custom("));
    }
}
