//! Route-selection policies.

use serde::{Deserialize, Serialize};
use std::fmt;

/// How shuttle routes are chosen and how transport is scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RouterPolicy {
    /// The serial-transport executor both the paper and the Murali et al.
    /// baseline assume: one ion moves at a time, hop-by-hop along the
    /// shortest path, detouring around full traps whenever *any* detour
    /// exists and re-balancing otherwise. Transport depth equals shuttle
    /// count. This is the default, preserving paper parity bit-for-bit.
    #[default]
    Serial,
    /// Congestion-aware routing plus concurrent transport:
    ///
    /// * routes are priced as one unit of min-cost flow — each segment costs one
    ///   hop plus a congestion surcharge from recent use, and passing
    ///   through a full interior trap costs 6 extra hops (an estimate of
    ///   one re-balancing eviction: a destination search plus 1-2
    ///   eviction hops, often cascading). The planner detours around a
    ///   full trap only while the detour is cheaper than evicting through
    ///   it; pathologically long detours (more than 6 extra hops per full
    ///   trap) fall back to the pass-through-and-evict route the serial
    ///   router would take when no detour exists at all.
    /// * the emitted flat schedule is packed into rounds of edge-disjoint
    ///   concurrent shuttles; the round count (transport depth) becomes
    ///   the timing-relevant metric.
    Congestion,
}

/// Extra cost, in hops, of crossing one full interior trap under
/// [`RouterPolicy::Congestion`]: the planner's price for the re-balancing
/// eviction that crossing would force.
pub(crate) const FULL_TRAP_PENALTY: u32 = 6;

impl RouterPolicy {
    /// The congestion router.
    pub fn congestion() -> Self {
        RouterPolicy::Congestion
    }

    /// Returns `true` for the congestion-aware policy.
    pub fn is_congestion(self) -> bool {
        matches!(self, RouterPolicy::Congestion)
    }
}

impl fmt::Display for RouterPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouterPolicy::Serial => write!(f, "serial"),
            RouterPolicy::Congestion => write!(f, "congestion(penalty={FULL_TRAP_PENALTY})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_serial() {
        assert_eq!(RouterPolicy::default(), RouterPolicy::Serial);
        assert!(!RouterPolicy::Serial.is_congestion());
        assert!(RouterPolicy::congestion().is_congestion());
    }

    #[test]
    fn display_forms() {
        assert_eq!(RouterPolicy::Serial.to_string(), "serial");
        assert_eq!(
            RouterPolicy::congestion().to_string(),
            "congestion(penalty=6)"
        );
    }
}
