//! Incremental re-pricing benchmark: slice repair on the warm
//! [`IncrementalEngine`] against the cold all-sources sweep it
//! amortizes.
//!
//! Each configuration holds a UDG deployment (~12 neighbors/node, like
//! the paper's setups) and a moved variant with `m` nodes teleported to
//! fresh uniform positions — the per-epoch damage of a mobile network at
//! move rate `m`. The timed region alternates the two graphs, so every
//! iteration diffs and prices one *changed* epoch (the zero-delta reuse
//! path never fires):
//!
//! * `repair_move{m}` — the warm engine with the damage threshold pinned
//!   to 1.0, so every epoch takes the classify → slice-repair →
//!   branch-reprice path whatever the damage (the code under test; the
//!   shipped default would fall back to cold past 25% damage).
//! * `cold` — one warm [`AllSourcesEngine`] re-sweeping the full graph
//!   each epoch: the cost every epoch paid before the delta engine.
//!
//! Both sides run one worker on the radix queue (the configuration the
//! ≥5× single-move acceptance gate at n = 4096 is measured on) and are
//! asserted bit-identical before timing.

use truthcast_core::all_sources::AllSourcesEngine;
use truthcast_core::delta::{EpochStep, IncrementalEngine};
use truthcast_graph::generators::{pairs_within_range, random_placement};
use truthcast_graph::geometry::{Point, Region};
use truthcast_graph::{adjacency_from_pairs, Cost, NodeId, NodeWeightedGraph};
use truthcast_rt::bench::{black_box, Harness};
use truthcast_rt::{Rng, SeedableRng, SmallRng};

const RANGE: f64 = 300.0;

fn graph_from(points: &[Point], costs: &[Cost]) -> NodeWeightedGraph {
    let pairs: Vec<(u32, u32)> = pairs_within_range(points, RANGE)
        .into_iter()
        .map(|(u, v)| (u.0, v.0))
        .collect();
    NodeWeightedGraph::new(adjacency_from_pairs(points.len(), &pairs), costs.to_vec())
}

fn main() {
    let mut h = Harness::new("incremental");
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

        for &moves in &[1usize, 10, 100] {
            // Teleport `moves` random non-AP nodes to fresh positions.
            let mut moved = points.clone();
            for _ in 0..moves {
                let v = rng.gen_range(1..n);
                moved[v] = Point::new(
                    rng.gen_range(0.0..=region.width),
                    rng.gen_range(0.0..=region.height),
                );
            }
            let g1 = graph_from(&moved, &costs);
            assert_ne!(g0, g1, "teleports must change the topology");

            // The timings only mean anything if the tables agree on both
            // epoch directions.
            let mut engine = IncrementalEngine::with_threads(1).with_damage_threshold(1.0);
            let mut cold = AllSourcesEngine::with_threads(1);
            engine.price_epoch(&g0, ap, None);
            for (prev, g) in [(&g0, &g1), (&g1, &g0)] {
                let step = EpochStep::between(prev, g, None);
                assert_eq!(
                    *engine.price_epoch(g, ap, step.as_ref()),
                    cold.price_all_sources(g, ap),
                    "repair diverged from cold at n={n} moves={moves}"
                );
            }

            // Alternate epochs so every iteration repairs a real delta
            // (g0→g1 damage on even iterations, g1→g0 on odd).
            let mut flip = false;
            h.bench(format!("repair_move{moves}/{n}"), || {
                flip = !flip;
                let (prev, g) = if flip { (&g0, &g1) } else { (&g1, &g0) };
                let step = EpochStep::between(prev, g, None);
                black_box(engine.price_epoch(g, ap, step.as_ref()))
            });
        }

        // Zero-delta fast path: graph diff + cached-table return. Its
        // cost bounds the fixed per-epoch overhead every repair pays.
        let mut reuse_engine = IncrementalEngine::with_threads(1);
        reuse_engine.price_epoch(&g0, ap, None);
        h.bench(format!("reuse/{n}"), || {
            let step = EpochStep::between(&g0, &g0, None);
            black_box(reuse_engine.price_epoch(&g0, ap, step.as_ref()))
        });

        h.bench(format!("cold/{n}"), || {
            let mut cold = AllSourcesEngine::with_threads(1);
            black_box(cold.price_all_sources(&g0, ap))
        });
    }
    h.finish();
}
