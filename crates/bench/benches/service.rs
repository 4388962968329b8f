//! Serving-layer benchmark: anycast batch throughput of the
//! [`PaymentService`] across AP counts and thread counts, plus the cost
//! of an epoch swap while the tables stay hot.
//!
//! The deployment is the same ~12-neighbor UDG the incremental bench
//! uses (n = 1024). Each `serve` iteration pushes one pre-generated
//! 4096-session batch through the front-end — one snapshot read,
//! parallel anycast argmin over k APs, and bounded-queue admission — and drains
//! the queues. Per-session work is an array lookup plus a k-way
//! compare, so this measures the serving layer itself, not Dijkstra.
//! The committed snapshot (`BENCH_service.json`) is the scaling
//! evidence for the roadmap's serving tier: sessions/sec at t ∈
//! {1, 2, 7, 16} threads for k ∈ {1, 4, 16} APs. CI containers are
//! often single-core; on such hosts t > 1 only adds thread overhead, so
//! read the committed numbers per DESIGN.md §8 (the t1 column is the
//! honest per-core figure, and the t-sweep documents that
//! oversubscription degrades gracefully rather than collapsing).
//!
//! `epoch_swap/n1024/k4` times one full service epoch — four shard
//! re-warms (alternating two cost profiles, so every epoch repairs
//! rather than reuses) plus one snapshot publish — the latency a
//! deployment pays per mobility beat, entirely off the serving path.

use truthcast_graph::generators::{pairs_within_range, random_placement};
use truthcast_graph::geometry::{Point, Region};
use truthcast_graph::{adjacency_from_pairs, Cost, NodeId, NodeWeightedGraph};
use truthcast_rt::bench::{black_box, Harness};
use truthcast_rt::{Rng, SeedableRng, SmallRng};
use truthcast_service::{PaymentService, ServiceConfig};

const RANGE: f64 = 300.0;
const N: usize = 1024;
const BATCH: usize = 4096;

fn graph_from(points: &[Point], costs: &[Cost]) -> NodeWeightedGraph {
    let pairs: Vec<(u32, u32)> = pairs_within_range(points, RANGE)
        .into_iter()
        .map(|(u, v)| (u.0, v.0))
        .collect();
    NodeWeightedGraph::new(adjacency_from_pairs(points.len(), &pairs), costs.to_vec())
}

fn main() {
    let mut h = Harness::new("service");
    let mut rng = SmallRng::seed_from_u64(0x5e41b);
    // Density tuned for ~12 neighbors per node.
    let side = (N as f64 * RANGE * RANGE * std::f64::consts::PI / 12.0).sqrt();
    let region = Region::new(side, side);
    let points = random_placement(N, region, &mut rng);
    let costs: Vec<Cost> = (0..N)
        .map(|_| Cost::from_f64(rng.gen_range(1.0..50.0)))
        .collect();
    let g = graph_from(&points, &costs);

    for &k in &[1usize, 4, 16] {
        let aps: Vec<NodeId> = (0..k as u32).map(NodeId).collect();
        // One fixed session batch per k (APs excluded as sources), so
        // every thread count serves the identical workload.
        let batch: Vec<NodeId> = (0..BATCH)
            .map(|_| NodeId(rng.gen_range(k as u32..N as u32)))
            .collect();
        for &t in &[1usize, 2, 7, 16] {
            let cfg = ServiceConfig::new(aps.clone()).threads(t);
            let service = PaymentService::new(&cfg, &g);
            h.bench(format!("serve/n{N}/k{k}/t{t}"), || {
                let outcomes = service.serve_batch(&batch);
                service.drain();
                black_box(outcomes.len())
            });
        }
    }

    // Epoch swap cost at k = 4: alternate two cost profiles so every
    // epoch is a genuine repair (never the zero-delta reuse path).
    {
        let aps: Vec<NodeId> = (0..4u32).map(NodeId).collect();
        let g_b = g
            .with_declared(NodeId(100), Cost::from_units(1))
            .with_declared(NodeId(200), Cost::from_units(2));
        let cfg = ServiceConfig::new(aps).threads(1);
        let service = PaymentService::new(&cfg, &g);
        let mut flip = false;
        h.bench(format!("epoch_swap/n{N}/k4"), || {
            flip = !flip;
            let epoch = if flip { &g_b } else { &g };
            black_box(service.begin_epoch(epoch).len())
        });
    }

    h.finish();
}
