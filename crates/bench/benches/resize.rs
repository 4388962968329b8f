//! Cross-resize repair benchmark: identity-mapped join/leave epochs on
//! the warm [`IncrementalEngine`] against the cold all-sources sweep a
//! resize used to force.
//!
//! Each configuration holds a UDG deployment (~12 neighbors/node, like
//! the paper's setups) and a one-node variant — `join1` appends a node,
//! `leave1` swap-removes one from the middle. The timed region
//! alternates the two index spaces, each epoch diffed through the
//! matching [`NodeMap`] ([`EpochStep::between`]), so every iteration
//! repairs one real resize (forward on even iterations, the inverse map
//! on odd):
//!
//! * `join1` / `leave1` — the warm engine with the damage threshold
//!   pinned to 1.0, so every mapped epoch takes the severed-slice repair
//!   path (the code under test; before this plane any node-count change
//!   re-warmed cold).
//! * `cold` — one warm [`AllSourcesEngine`] re-sweeping the base graph
//!   each epoch: the price a resize paid before the repair plane.
//! * `service_churn/k4` — a 4-AP [`PaymentService`] driving the same
//!   alternating join/leave through `begin_epoch_mapped`: the service
//!   epoch cost under churn, all shards warm.
//!
//! Engine rows run one worker on the radix queue (the configuration the
//! acceptance gate at n = 4096 is measured on) and are asserted
//! bit-identical to the cold sweep in both directions before timing.

use truthcast_core::all_sources::AllSourcesEngine;
use truthcast_core::delta::{EpochOutcome, EpochStep, IncrementalEngine};
use truthcast_graph::generators::{pairs_within_range, random_placement};
use truthcast_graph::geometry::{Point, Region};
use truthcast_graph::{adjacency_from_pairs, Cost, NodeId, NodeMap, NodeWeightedGraph};
use truthcast_rt::bench::{black_box, Harness};
use truthcast_rt::{Rng, SeedableRng, SmallRng};
use truthcast_service::{PaymentService, ServiceConfig};

const RANGE: f64 = 300.0;

fn graph_from(points: &[Point], costs: &[Cost]) -> NodeWeightedGraph {
    let pairs: Vec<(u32, u32)> = pairs_within_range(points, RANGE)
        .into_iter()
        .map(|(u, v)| (u.0, v.0))
        .collect();
    NodeWeightedGraph::new(adjacency_from_pairs(points.len(), &pairs), costs.to_vec())
}

/// Warm `engine` on `a`, then assert both mapped directions agree with
/// the cold sweep and land on the warm-resize path. Leaves the engine
/// holding `a`'s tables.
fn check_roundtrip(
    engine: &mut IncrementalEngine,
    a: &NodeWeightedGraph,
    b: &NodeWeightedGraph,
    fwd: &NodeMap,
    rev: &NodeMap,
    ap: NodeId,
    label: &str,
) {
    let mut cold = AllSourcesEngine::with_threads(1);
    engine.price_epoch(a, ap, None);
    for (prev, g, m) in [(a, b, fwd), (b, a, rev)] {
        let step = EpochStep::between(prev, g, Some(m));
        assert_eq!(
            *engine.price_epoch(g, ap, step.as_ref()),
            cold.price_all_sources(g, ap),
            "{label}: mapped repair diverged from cold"
        );
        assert!(
            matches!(engine.last_outcome(), EpochOutcome::WarmResize { .. }),
            "{label}: expected WarmResize, got {:?}",
            engine.last_outcome()
        );
    }
}

fn main() {
    let mut h = Harness::new("resize");
    for &n in &[1024usize, 4096] {
        let mut rng = SmallRng::seed_from_u64(0xDE17A + n as u64);
        // Density tuned for ~12 neighbors per node.
        let side = (n as f64 * RANGE * RANGE * std::f64::consts::PI / 12.0).sqrt();
        let region = Region::new(side, side);
        let points = random_placement(n, region, &mut rng);
        let costs: Vec<Cost> = (0..n)
            .map(|_| Cost::from_f64(rng.gen_range(1.0..50.0)))
            .collect();
        let g0 = graph_from(&points, &costs);
        let ap = NodeId(0);

        // One node joins at the end of the index space.
        let mut plus_points = points.clone();
        plus_points.push(Point::new(
            rng.gen_range(0.0..=region.width),
            rng.gen_range(0.0..=region.height),
        ));
        let mut plus_costs = costs.clone();
        plus_costs.push(Cost::from_f64(rng.gen_range(1.0..50.0)));
        let g_plus = graph_from(&plus_points, &plus_costs);
        assert!(
            g_plus.adjacency().degree(NodeId(n as u32)) > 0,
            "the newborn must land in range of the deployment"
        );
        let join_fwd = NodeMap::join(n, 1);
        let join_rev = NodeMap::leave_swap(n + 1, NodeId(n as u32));

        let mut engine = IncrementalEngine::with_threads(1).with_damage_threshold(1.0);
        check_roundtrip(&mut engine, &g0, &g_plus, &join_fwd, &join_rev, ap, "join1");
        let mut flip = false;
        h.bench(format!("join1/{n}"), || {
            flip = !flip;
            let (prev, g, m) = if flip {
                (&g0, &g_plus, &join_fwd)
            } else {
                (&g_plus, &g0, &join_rev)
            };
            let step = EpochStep::between(prev, g, Some(m));
            black_box(engine.price_epoch(g, ap, step.as_ref()))
        });

        // One node leaves from the middle of the index space; the old
        // last node is swapped into its slot. The reverse map puts the
        // survivor back at the end and re-bears the departed node at its
        // old index.
        let v = n / 2;
        let mut minus_points = points.clone();
        minus_points.swap_remove(v);
        let mut minus_costs = costs.clone();
        minus_costs.swap_remove(v);
        let g_minus = graph_from(&minus_points, &minus_costs);
        let leave_fwd = NodeMap::leave_swap(n, NodeId(v as u32));
        let leave_rev = NodeMap::from_old_to_new(
            (0..n - 1)
                .map(|j| Some(NodeId::new(if j == v { n - 1 } else { j })))
                .collect(),
            n,
        );

        let mut engine = IncrementalEngine::with_threads(1).with_damage_threshold(1.0);
        check_roundtrip(
            &mut engine,
            &g0,
            &g_minus,
            &leave_fwd,
            &leave_rev,
            ap,
            "leave1",
        );
        let mut flip = false;
        h.bench(format!("leave1/{n}"), || {
            flip = !flip;
            let (prev, g, m) = if flip {
                (&g0, &g_minus, &leave_fwd)
            } else {
                (&g_minus, &g0, &leave_rev)
            };
            let step = EpochStep::between(prev, g, Some(m));
            black_box(engine.price_epoch(g, ap, step.as_ref()))
        });

        // The cost every resize epoch paid before the repair plane.
        let mut cold = AllSourcesEngine::with_threads(1);
        h.bench(format!("cold/{n}"), || {
            black_box(cold.price_all_sources(&g0, ap))
        });

        // Service churn epoch: k = 4 shards repairing the same
        // alternating join/leave, all warm. The joining/leaving index is
        // n ≥ 4, so the APs at 0..4 keep their numbers.
        if n == 1024 {
            let aps: Vec<NodeId> = (0..4).map(NodeId).collect();
            let cfg = ServiceConfig::new(aps).threads(1).damage_threshold(1.0);
            let service = PaymentService::new(&cfg, &g0);
            let mut flip = false;
            h.bench("service_churn/k4".to_string(), || {
                flip = !flip;
                let (g, m) = if flip {
                    (&g_plus, &join_fwd)
                } else {
                    (&g0, &join_rev)
                };
                black_box(service.begin_epoch_mapped(g, m))
            });
        }
    }
    h.finish();
}
