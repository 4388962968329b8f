//! All-sources engine benchmark: one shared-sweep pass against the
//! per-source `fast_payments` loop it replaces.
//!
//! Pricing every node toward the access point used to mean n independent
//! Algorithm 1 runs — n destination-rooted sweeps plus n crossing-edge
//! scans on the same graph. The [`AllSourcesEngine`] computes one
//! AP-rooted SPT and derives every (source, relay) replacement cost from
//! per-relay restricted detour runs over it (DESIGN.md §10), so its cost
//! is output-sensitive in the SPT's subtree sizes rather than n full
//! sweeps. Configurations per size (UDG, ~12 neighbors/node):
//!
//! * `sequential_per_source` — the baseline: one `fast_payments` call
//!   per source, fresh buffers each time. At n = 4096 the full loop is
//!   too slow to sample honestly, so the baseline there times a labeled
//!   512-source subsample instead (`sequential_subsample_512`) — scale
//!   by 8 for the full-loop estimate.
//! * `engine_1_thread` — the shared sweep on one worker, radix queue:
//!   the configuration the ≥5× acceptance gate is measured on.
//! * `engine_8_threads` — the per-relay detour runs sharded across 8
//!   workers (bit-identical output; see DESIGN.md §8 on cores).
//!
//! Engine and loop are asserted bit-identical before timing (n ≤ 1024).

use truthcast_core::all_sources::AllSourcesEngine;
use truthcast_core::fast_payments;
use truthcast_graph::generators::random_udg;
use truthcast_graph::geometry::Region;
use truthcast_graph::{Cost, NodeId, NodeWeightedGraph};
use truthcast_rt::bench::{black_box, Harness};
use truthcast_rt::{Rng, SeedableRng, SmallRng};

fn udg(n: usize, seed: u64) -> NodeWeightedGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    // Density tuned for ~12 neighbors per node, like the paper's setups.
    let side = (n as f64 * 300.0 * 300.0 * std::f64::consts::PI / 12.0).sqrt();
    let (_, adj) = random_udg(n, Region::new(side, side), 300.0, &mut rng);
    let costs = (0..n)
        .map(|_| Cost::from_f64(rng.gen_range(1.0..50.0)))
        .collect();
    NodeWeightedGraph::new(adj, costs)
}

fn main() {
    let mut h = Harness::new("all_sources");
    for &n in &[256usize, 1024, 4096] {
        let g = udg(n, 0xA115 + n as u64);
        let ap = NodeId(0);

        // The timings only mean anything if the tables agree.
        if n <= 1024 {
            let expected: Vec<_> = g
                .node_ids()
                .map(|s| (s != ap).then(|| fast_payments(&g, s, ap)).flatten())
                .collect();
            for threads in [1, 8] {
                let mut engine = AllSourcesEngine::with_threads(threads);
                assert_eq!(
                    engine.price_all_sources(&g, ap),
                    expected,
                    "engine({threads}) diverged from fast_payments on n={n}"
                );
            }
        }

        if n <= 1024 {
            h.bench(format!("sequential_per_source/{n}"), || {
                let out: Vec<_> = g
                    .node_ids()
                    .map(|s| (s != ap).then(|| fast_payments(&g, s, ap)).flatten())
                    .collect();
                black_box(out)
            });
        } else {
            // Every 8th source: an honest sample of the full loop's
            // per-source cost without minutes-long iterations.
            h.bench(format!("sequential_subsample_512/{n}"), || {
                let out: Vec<_> = g
                    .node_ids()
                    .step_by(8)
                    .map(|s| (s != ap).then(|| fast_payments(&g, s, ap)).flatten())
                    .collect();
                black_box(out)
            });
        }
        h.bench(format!("engine_1_thread/{n}"), || {
            let mut engine = AllSourcesEngine::with_threads(1);
            black_box(engine.price_all_sources(&g, ap))
        });
        h.bench(format!("engine_8_threads/{n}"), || {
            let mut engine = AllSourcesEngine::with_threads(8);
            black_box(engine.price_all_sources(&g, ap))
        });
    }
    h.finish();
}
