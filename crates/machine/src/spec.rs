//! Validated machine specification.

use crate::error::MachineError;
use crate::ids::TrapId;
use crate::topology::TrapTopology;
use crate::zones::ZoneLayout;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// A QCCD machine specification: interconnect topology plus per-trap
/// capacities (§II-B1 of the paper).
///
/// * **Total trap capacity** — maximum ions a trap can physically hold.
/// * **Communication capacity** — slots kept *unoccupied* at initial
///   allocation so shuttled ions from other traps can be accepted.
/// * **Zone layout** — how each trap's capacity splits into gate, storage
///   and loading zones ([`ZoneLayout`]; defaults to one homogeneous gate
///   zone, the paper's model).
///
/// The paper's evaluation platform is `MachineSpec::linear(6, 17, 2)`:
/// "the 'L6' trap topology ... 6 traps connected in a linear fashion. Each
/// trap has a total capacity of 17 with a communication capacity of 2 per
/// trap" (§IV-A).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MachineSpec {
    topology: TrapTopology,
    total_capacity: u32,
    comm_capacity: u32,
    zones: ZoneLayout,
}

impl MachineSpec {
    /// Creates a validated spec from an arbitrary topology.
    ///
    /// # Errors
    ///
    /// * [`MachineError::NoTraps`] if the topology is empty.
    /// * [`MachineError::ZeroCapacity`] if `total_capacity == 0`.
    /// * [`MachineError::CommCapacityTooLarge`] if
    ///   `comm_capacity >= total_capacity`.
    pub fn new(
        topology: TrapTopology,
        total_capacity: u32,
        comm_capacity: u32,
    ) -> Result<Self, MachineError> {
        if topology.num_traps() == 0 {
            return Err(MachineError::NoTraps);
        }
        if total_capacity == 0 {
            return Err(MachineError::ZeroCapacity);
        }
        if comm_capacity >= total_capacity {
            return Err(MachineError::CommCapacityTooLarge {
                total: total_capacity,
                comm: comm_capacity,
            });
        }
        Ok(MachineSpec {
            topology,
            total_capacity,
            comm_capacity,
            zones: ZoneLayout::single(total_capacity),
        })
    }

    /// Replaces the homogeneous default with an explicit multi-zone layout
    /// applied to every trap.
    ///
    /// # Errors
    ///
    /// * [`MachineError::ZoneCapacityMismatch`] — the zones do not sum to
    ///   the trap's total capacity.
    /// * [`MachineError::CommExceedsLoadingZone`] — a multi-zone layout
    ///   whose loading zone cannot host the reserved communication slots
    ///   (shuttled ions arrive in the loading zone).
    pub fn with_zone_layout(mut self, zones: ZoneLayout) -> Result<Self, MachineError> {
        if zones.total() != self.total_capacity {
            return Err(MachineError::ZoneCapacityMismatch {
                zones: zones.total(),
                total: self.total_capacity,
            });
        }
        if !zones.is_single() && self.comm_capacity > zones.loading {
            return Err(MachineError::CommExceedsLoadingZone {
                comm: self.comm_capacity,
                loading: zones.loading,
            });
        }
        self.zones = zones;
        Ok(self)
    }

    /// The per-trap zone layout.
    pub fn zone_layout(&self) -> &ZoneLayout {
        &self.zones
    }

    /// Shorthand for a linear ("Lk") machine.
    ///
    /// # Errors
    ///
    /// Same as [`MachineSpec::new`].
    pub fn linear(
        traps: u32,
        total_capacity: u32,
        comm_capacity: u32,
    ) -> Result<Self, MachineError> {
        MachineSpec::new(TrapTopology::linear(traps), total_capacity, comm_capacity)
    }

    /// The paper's evaluation platform: L6, capacity 17, comm capacity 2.
    pub fn paper_l6() -> Self {
        MachineSpec::linear(6, 17, 2).expect("paper parameters are valid")
    }

    /// The interconnect topology.
    pub fn topology(&self) -> &TrapTopology {
        &self.topology
    }

    /// Number of traps.
    pub fn num_traps(&self) -> u32 {
        self.topology.num_traps()
    }

    /// Maximum ions a single trap can hold.
    pub fn total_capacity(&self) -> u32 {
        self.total_capacity
    }

    /// Slots reserved for incoming shuttled ions at initial allocation.
    pub fn comm_capacity(&self) -> u32 {
        self.comm_capacity
    }

    /// Ions a trap may host at *initial allocation*
    /// (`total − communication`).
    pub fn initial_capacity_per_trap(&self) -> u32 {
        self.total_capacity - self.comm_capacity
    }

    /// Total ions the whole machine may host at initial allocation,
    /// saturating at `u32::MAX` (no circuit has more qubits than that).
    pub fn initial_capacity(&self) -> u32 {
        self.initial_capacity_per_trap()
            .saturating_mul(self.num_traps())
    }

    /// Validates a trap id against this machine.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::TrapOutOfRange`] for ids beyond the topology.
    pub fn check_trap(&self, t: TrapId) -> Result<(), MachineError> {
        if t.0 >= self.num_traps() {
            return Err(MachineError::TrapOutOfRange {
                trap: t,
                num_traps: self.num_traps(),
            });
        }
        Ok(())
    }
}

impl fmt::Display for MachineSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.zones.is_single() {
            write!(
                f,
                "{}(cap {}, comm {})",
                self.topology, self.total_capacity, self.comm_capacity
            )
        } else {
            write!(
                f,
                "{}(cap {}, comm {}, zones {})",
                self.topology, self.total_capacity, self.comm_capacity, self.zones
            )
        }
    }
}

/// Parses the [`Display`](fmt::Display) form back into a validated spec —
/// the round-trip serialisation used by reports and config files (the
/// workspace's serde dependency is a marker stub, so this is the canonical
/// textual codec).
///
/// Grammar: `L6(cap 17, comm 2)`, `R6(cap 17, comm 2)`,
/// `G2x3(cap 17, comm 2)`, optionally with a `, zones 13+2+2` suffix.
/// Custom topologies (`C5e4`) render lossily and cannot be parsed back.
impl FromStr for MachineSpec {
    type Err = String;

    fn from_str(text: &str) -> Result<Self, Self::Err> {
        let bad = || format!("malformed machine spec `{text}`");
        let (topo_text, rest) = text.split_once('(').ok_or_else(bad)?;
        let body = rest.strip_suffix(')').ok_or_else(bad)?;
        let topology = parse_topology_display(topo_text)
            .ok_or_else(|| format!("unparseable topology `{topo_text}` in `{text}`"))?;
        let mut cap = None;
        let mut comm = None;
        let mut zones = None;
        for field in body.split(", ") {
            let (key, value) = field.split_once(' ').ok_or_else(bad)?;
            match key {
                "cap" => cap = Some(value.parse::<u32>().map_err(|_| bad())?),
                "comm" => comm = Some(value.parse::<u32>().map_err(|_| bad())?),
                "zones" => {
                    let mut parts = value.split('+').map(|p| p.parse::<u32>());
                    let (g, s, l) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
                        (Some(Ok(g)), Some(Ok(s)), Some(Ok(l)), None) => (g, s, l),
                        _ => return Err(bad()),
                    };
                    zones = Some(ZoneLayout::new(g, s, l).map_err(|e| e.to_string())?);
                }
                _ => return Err(bad()),
            }
        }
        let spec = MachineSpec::new(topology, cap.ok_or_else(bad)?, comm.ok_or_else(bad)?)
            .map_err(|e| e.to_string())?;
        match zones {
            Some(z) => spec.with_zone_layout(z).map_err(|e| e.to_string()),
            None => Ok(spec),
        }
    }
}

/// Parses a topology's `Display` form (`L6`, `R6`, `G2x3`).
fn parse_topology_display(text: &str) -> Option<TrapTopology> {
    if !text.is_ascii() || text.is_empty() {
        return None;
    }
    let (kind, dims) = text.split_at(1);
    match kind {
        "L" => {
            let n = dims.parse::<u32>().ok().filter(|&n| n > 0)?;
            Some(TrapTopology::linear(n))
        }
        "R" => {
            let n = dims.parse::<u32>().ok().filter(|&n| n >= 3)?;
            Some(TrapTopology::ring(n))
        }
        "G" => {
            let (r, c) = dims.split_once('x')?;
            let rows = r.parse::<u32>().ok().filter(|&n| n > 0)?;
            let cols = c.parse::<u32>().ok().filter(|&n| n > 0)?;
            Some(TrapTopology::grid(rows, cols))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_l6_parameters() {
        let m = MachineSpec::paper_l6();
        assert_eq!(m.num_traps(), 6);
        assert_eq!(m.total_capacity(), 17);
        assert_eq!(m.comm_capacity(), 2);
        assert_eq!(m.initial_capacity_per_trap(), 15);
        assert_eq!(m.initial_capacity(), 90); // enough for 78-qubit SquareRoot
        assert_eq!(m.to_string(), "L6(cap 17, comm 2)");
    }

    #[test]
    fn rejects_comm_ge_total() {
        assert_eq!(
            MachineSpec::linear(2, 4, 4).unwrap_err(),
            MachineError::CommCapacityTooLarge { total: 4, comm: 4 }
        );
    }

    #[test]
    fn rejects_zero_capacity_and_no_traps() {
        assert_eq!(
            MachineSpec::linear(2, 0, 0).unwrap_err(),
            MachineError::ZeroCapacity
        );
        assert_eq!(
            MachineSpec::linear(0, 4, 1).unwrap_err(),
            MachineError::NoTraps
        );
    }

    #[test]
    fn default_layout_is_single_gate_zone() {
        let m = MachineSpec::paper_l6();
        assert!(m.zone_layout().is_single());
        assert_eq!(m.zone_layout().gate, 17);
    }

    #[test]
    fn zone_layout_must_sum_to_capacity() {
        let m = MachineSpec::linear(2, 17, 2).unwrap();
        assert_eq!(
            m.clone()
                .with_zone_layout(ZoneLayout::new(10, 2, 2).unwrap())
                .unwrap_err(),
            MachineError::ZoneCapacityMismatch {
                zones: 14,
                total: 17
            }
        );
        let zoned = m
            .with_zone_layout(ZoneLayout::new(13, 2, 2).unwrap())
            .unwrap();
        assert_eq!(zoned.zone_layout().storage, 2);
    }

    #[test]
    fn comm_slots_must_fit_the_loading_zone() {
        // comm 3 > loading 2: arrivals could not be hosted where they land.
        let m = MachineSpec::linear(2, 17, 3).unwrap();
        assert_eq!(
            m.with_zone_layout(ZoneLayout::new(13, 2, 2).unwrap())
                .unwrap_err(),
            MachineError::CommExceedsLoadingZone {
                comm: 3,
                loading: 2
            }
        );
    }

    #[test]
    fn zero_gate_zone_rejected_at_layout_construction() {
        assert_eq!(
            ZoneLayout::new(0, 15, 2).unwrap_err(),
            MachineError::EmptyGateZone
        );
    }

    #[test]
    fn display_round_trips_through_from_str() {
        let plain = MachineSpec::paper_l6();
        assert_eq!(plain.to_string().parse::<MachineSpec>().unwrap(), plain);

        let zoned = MachineSpec::linear(6, 17, 2)
            .unwrap()
            .with_zone_layout(ZoneLayout::new(13, 2, 2).unwrap())
            .unwrap();
        assert_eq!(zoned.to_string(), "L6(cap 17, comm 2, zones 13+2+2)");
        assert_eq!(zoned.to_string().parse::<MachineSpec>().unwrap(), zoned);

        for topology in [TrapTopology::ring(5), TrapTopology::grid(2, 3)] {
            let m = MachineSpec::new(topology, 8, 2).unwrap();
            assert_eq!(m.to_string().parse::<MachineSpec>().unwrap(), m);
        }
    }

    #[test]
    fn from_str_rejects_malformed_and_invalid_specs() {
        for bad in [
            "",
            "L6",
            "L6(cap 17)",                      // missing comm
            "L6(cap 17, comm 17)",             // comm >= total
            "L0(cap 4, comm 1)",               // no traps
            "C5e4(cap 4, comm 1)",             // custom topologies are lossy
            "L6(cap 17, comm 2, zones 1+2+2)", // gate zone too small
            "L6(cap 17, comm 2, zones 13+2)",  // malformed zone triple
            "X6(cap 17, comm 2)",
        ] {
            assert!(bad.parse::<MachineSpec>().is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn check_trap_bounds() {
        let m = MachineSpec::linear(3, 4, 1).unwrap();
        assert!(m.check_trap(TrapId(2)).is_ok());
        assert!(m.check_trap(TrapId(3)).is_err());
    }
}
