//! A [`CommodityRouter`] reused across calls routes exactly like a fresh
//! network per call ([`route_commodities`]): the same routes, the same
//! `None` fallbacks and the same `flow.*` work counters, on line, ring,
//! grid and disconnected graphs under random (tied, zero-cost included)
//! edge costs.
//!
//! The counters are process-global, so this binary holds this one test.

use proptest::prelude::*;
use qccd_flow::{route_commodities, Adjacency, Commodity, CommodityRouter};

/// A line, ring, grid or disconnected graph (two lines) on 2–9 nodes.
fn graph(kind: u32, size: usize) -> Adjacency {
    match kind {
        0 => Adjacency::line(size),
        1 => Adjacency::ring(size.max(3)),
        2 => Adjacency::grid(2 + size % 3, 2 + size / 3 % 3),
        _ => {
            let mut g = Adjacency::new(size);
            for a in (1..size).filter(|&a| a != size / 2) {
                g.add_edge(a - 1, a);
            }
            g
        }
    }
}

/// Runs `f` with telemetry on and returns its value with the flow work
/// counters it bumped.
fn counted<T>(f: impl FnOnce() -> T) -> (T, [u64; 4]) {
    qccd_obs::reset();
    qccd_obs::enable();
    let value = f();
    qccd_obs::disable();
    let counters = [
        "flow.solves",
        "flow.augmenting_paths",
        "flow.commodities_routed",
        "flow.commodity_fallbacks",
    ]
    .map(qccd_obs::counter_value);
    (value, counters)
}

type Call = (Vec<(usize, usize)>, Vec<i64>);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn reused_router_matches_fresh_per_call_routing(
        kind in 0u32..4,
        size in 2usize..10,
        calls in proptest::collection::vec(
            (
                proptest::collection::vec((0usize..16, 0usize..16), 0..8),
                proptest::collection::vec(0i64..=4, 1..12),
            ),
            1..8,
        ),
    ) {
        let g = graph(kind, size);
        let n = g.len();
        let mut router = CommodityRouter::new(&g);
        let calls: Vec<Call> = calls;
        for (demands, costs) in &calls {
            let commodities: Vec<Commodity> = demands
                .iter()
                .map(|&(a, b)| Commodity { source: a % n, sink: b % n })
                .collect();
            let cost = |a: usize, b: usize| costs[(a * 7 + b * 3) % costs.len()];
            let (got, got_work) = counted(|| router.route(&commodities, cost));
            let (want, want_work) = counted(|| route_commodities(&g, &commodities, cost));
            prop_assert_eq!(got, want);
            prop_assert_eq!(got_work, want_work);
        }
    }
}
