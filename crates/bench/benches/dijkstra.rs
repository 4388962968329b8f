//! Substrate benchmark: node-weighted and link-weighted Dijkstra sweeps,
//! including the early-exit ablation used by the naive payment scheme.
//!
//! The full sweeps run through a reused workspace and the `*_in` entry
//! points, so no per-query allocation is measured. Their ids keep the
//! `/radix` suffix of the rows that once compared the radix queue with a
//! binary one, so committed baselines still line up.

use truthcast_rt::bench::{black_box, Harness};
use truthcast_rt::{Rng, SeedableRng, SmallRng};

use truthcast_graph::dijkstra::{dijkstra, dijkstra_in, DijkstraOptions, Direction};
use truthcast_graph::generators::random_udg;
use truthcast_graph::geometry::Region;
use truthcast_graph::node_dijkstra::{node_dijkstra_in, NodeDijkstraOptions};
use truthcast_graph::{Cost, DijkstraWorkspace, LinkWeightedDigraph, NodeId, NodeWeightedGraph};

fn node_weighted(n: usize, seed: u64) -> NodeWeightedGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let side = (n as f64 * 300.0 * 300.0 * std::f64::consts::PI / 12.0).sqrt();
    let (_, adj) = random_udg(n, Region::new(side, side), 300.0, &mut rng);
    let costs = (0..n)
        .map(|_| Cost::from_f64(rng.gen_range(1.0..50.0)))
        .collect();
    NodeWeightedGraph::new(adj, costs)
}

fn link_weighted(n: usize, seed: u64) -> LinkWeightedDigraph {
    let g = node_weighted(n, seed);
    let arcs: Vec<_> = g
        .adjacency()
        .edges()
        .flat_map(|(u, v)| [(u, v, g.cost(v)), (v, u, g.cost(u))])
        .collect();
    LinkWeightedDigraph::from_arcs(n, arcs)
}

fn main() {
    let mut h = Harness::new("dijkstra");
    for &n in &[256usize, 1024, 4096] {
        let gw = node_weighted(n, 7 + n as u64);
        let gl = link_weighted(n, 7 + n as u64);
        let mut ws = DijkstraWorkspace::with_capacity(n);
        h.bench(format!("node_weighted_full/{n}/radix"), || {
            node_dijkstra_in(&mut ws, &gw, NodeId(0), NodeDijkstraOptions::default());
            black_box(ws.dist(NodeId::new(n - 1)))
        });
        h.bench(format!("link_weighted_full/{n}/radix"), || {
            dijkstra_in(
                &mut ws,
                &gl,
                NodeId(0),
                Direction::Forward,
                DijkstraOptions::default(),
            );
            black_box(ws.dist(NodeId::new(n - 1)))
        });
        let target = NodeId::new(n / 2);
        h.bench(format!("link_weighted_early_exit/{n}"), || {
            black_box(dijkstra(
                &gl,
                NodeId(0),
                Direction::Forward,
                DijkstraOptions {
                    avoid: None,
                    avoid_edge: None,
                    target: Some(target),
                },
            ))
        });
    }
    h.finish();
}
