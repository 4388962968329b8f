//! Differential battery: the radix-heap Dijkstra engine must agree with a
//! binary-heap reference Dijkstra on every sweep family.
//!
//! The reference ([`binary_sweep`]) lives only in this file: a textbook
//! Dijkstra on the decrease-key [`IndexedHeap`], written for clarity
//! rather than speed. The two queues break ties among equal-priority
//! entries differently, so *paths and parent pointers* may legitimately
//! differ on tie-heavy instances. What is tie-independent — and therefore
//! asserted bit-exactly — is:
//!
//! * the full distance table (hence the reached set),
//! * local consistency of each side's own parent tree
//!   (`dist[v] == dist[parent(v)] + step cost`, root at the origin),
//! * early-exit sweeps: the settled *prefix* depends on tie order, so
//!   only the target's distance is compared.
//!
//! Instances cover random unit-disk and Erdős–Rényi topologies, masked
//! node removal, undirected edge removal, and a tie-heavy small-integer
//! cost regime that maximizes equal-priority pressure on both queues.

use truthcast_graph::connectivity::is_connected;
use truthcast_graph::dijkstra::{dijkstra_in, DijkstraOptions, Direction};
use truthcast_graph::generators::{erdos_renyi, random_udg};
use truthcast_graph::geometry::Region;
use truthcast_graph::heap::IndexedHeap;
use truthcast_graph::node_dijkstra::{node_dijkstra_in, NodeDijkstraOptions};
use truthcast_graph::{
    Adjacency, Cost, DijkstraWorkspace, LinkWeightedDigraph, NodeId, NodeMask, NodeWeightedGraph,
};
use truthcast_rt::{cases, forall, prop_assert, prop_assert_eq, subsequence, Strategy};
use truthcast_rt::{Rng, SeedableRng, SmallRng};

/// Strategy: a random undirected graph as (n, edge list) with n in 2..14.
fn small_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..14).prop_flat_map(|n| {
        let all_pairs: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|u| ((u + 1)..n as u32).map(move |v| (u, v)))
            .collect();
        subsequence(all_pairs, 0..=n * (n - 1) / 2).prop_map(move |edges| (n, edges))
    })
}

/// A sweep's `(dist, parent)` tables.
struct Tables {
    dist: Vec<Cost>,
    parent: Vec<Option<NodeId>>,
}

impl Tables {
    fn of(ws: &DijkstraWorkspace) -> Tables {
        let (mut dist, mut parent) = (Vec::new(), Vec::new());
        ws.export_into(&mut dist, &mut parent);
        Tables { dist, parent }
    }

    fn dist(&self, v: NodeId) -> Cost {
        self.dist[v.index()]
    }
}

/// The reference engine: Dijkstra from `origin` on a binary
/// [`IndexedHeap`] with decrease-key. `steps(u)` lists the arcs `u → v`
/// the sweep may relax, with their step costs (masks and removed edges
/// already filtered out). Stops once `target` is settled.
fn binary_sweep(
    n: usize,
    origin: NodeId,
    origin_blocked: bool,
    target: Option<NodeId>,
    steps: impl Fn(NodeId) -> Vec<(NodeId, Cost)>,
) -> Tables {
    let mut t = Tables {
        dist: vec![Cost::INF; n],
        parent: vec![None; n],
    };
    let mut heap = IndexedHeap::new(n);
    if !origin_blocked {
        t.dist[origin.index()] = Cost::ZERO;
        heap.push(origin.0, Cost::ZERO);
    }
    while let Some((key, du)) = heap.pop_min() {
        let u = NodeId(key);
        if Some(u) == target {
            break;
        }
        for (v, w) in steps(u) {
            let cand = du + w;
            if cand < t.dist[v.index()] {
                t.dist[v.index()] = cand;
                t.parent[v.index()] = Some(u);
                heap.push_or_update(v.0, cand);
            }
        }
    }
    t
}

/// Reference node-weighted sweep with the [`node_dijkstra_in`] contract.
fn binary_node_sweep(
    g: &NodeWeightedGraph,
    origin: NodeId,
    opts: NodeDijkstraOptions<'_>,
) -> Tables {
    let blocked = |v: NodeId| opts.avoid.is_some_and(|m| m.is_blocked(v));
    binary_sweep(g.num_nodes(), origin, blocked(origin), opts.target, |u| {
        g.neighbors(u)
            .iter()
            .filter(|&&v| !blocked(v))
            .map(|&v| (v, g.cost(v)))
            .collect()
    })
}

/// Reference edge-weighted sweep with the [`dijkstra_in`] contract.
fn binary_link_sweep(
    g: &LinkWeightedDigraph,
    origin: NodeId,
    direction: Direction,
    opts: DijkstraOptions<'_>,
) -> Tables {
    let blocked = |v: NodeId| opts.avoid.is_some_and(|m| m.is_blocked(v));
    binary_sweep(g.num_nodes(), origin, blocked(origin), opts.target, |u| {
        let row = match direction {
            Direction::Forward => g.out_arcs(u),
            Direction::Backward => g.in_arcs(u),
        };
        row.iter()
            .filter(|a| !blocked(a.head) || Some(a.head) == opts.target)
            .filter(|a| match opts.avoid_edge {
                Some((x, y)) => (u, a.head) != (x, y) && (u, a.head) != (y, x),
                None => true,
            })
            .map(|a| (a.head, a.weight))
            .collect()
    })
}

/// Asserts the radix sweep and the reference agree on every distance (and
/// therefore on the reached set), and that each one's parent tree is
/// locally consistent under `step(parent, v)` — the tie-independent
/// contract.
fn assert_sweeps_agree(
    radix: &DijkstraWorkspace,
    binary: &Tables,
    n: usize,
    origin: NodeId,
    step: impl Fn(NodeId, NodeId) -> Cost,
) {
    let radix = Tables::of(radix);
    for v in (0..n).map(NodeId::new) {
        assert_eq!(radix.dist(v), binary.dist(v), "dist({v}) diverges");
    }
    for t in [&radix, binary] {
        for v in (0..n).map(NodeId::new) {
            match t.parent[v.index()] {
                Some(p) => {
                    assert!(t.dist(p).is_finite(), "parent of {v} unreached");
                    assert_eq!(
                        t.dist(v),
                        t.dist(p) + step(p, v),
                        "parent tree inconsistent at {v}"
                    );
                }
                None => {
                    // Only the origin and unreached nodes lack a parent.
                    assert!(
                        v == origin || t.dist(v).is_inf(),
                        "reached non-origin {v} has no parent"
                    );
                }
            }
        }
    }
}

/// Seeded LCG for per-case cost streams inside `forall!` closures.
fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed;
    move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s >> 33
    }
}

/// Node-weighted sweeps: full tables, every origin, with and without a
/// masked (removed) relay. Tie-heavy costs (`% 4`) on odd seeds.
#[test]
fn node_sweeps_agree_with_and_without_masks() {
    forall!(cases(96), (small_graph(), 0u64..1_000_000), |(
        (n, edges),
        seed,
    )| {
        let mut next = lcg(seed);
        let modulus = if seed % 2 == 1 { 4 } else { 50 };
        let costs: Vec<u64> = (0..n).map(|_| next() % modulus).collect();
        let g = NodeWeightedGraph::from_pairs_units(&edges, &costs);
        let mut radix = DijkstraWorkspace::with_capacity(n);
        for origin in (0..n).map(NodeId::new) {
            let opts = NodeDijkstraOptions::default();
            node_dijkstra_in(&mut radix, &g, origin, opts);
            let binary = binary_node_sweep(&g, origin, opts);
            assert_sweeps_agree(&radix, &binary, n, origin, |_, v| g.cost(v));

            // Masked relay removal: block one non-origin node.
            let blocked = NodeId::new((origin.index() + 1) % n);
            let mask = NodeMask::from_nodes(n, [blocked]);
            let opts = NodeDijkstraOptions {
                avoid: Some(&mask),
                target: None,
            };
            node_dijkstra_in(&mut radix, &g, origin, opts);
            let binary = binary_node_sweep(&g, origin, opts);
            for v in (0..n).map(NodeId::new) {
                prop_assert_eq!(radix.dist(v), binary.dist(v));
            }
            prop_assert!(radix.dist(blocked).is_inf());
        }
        Ok(())
    });
}

/// Edge-weighted sweeps: both directions, full tables, plus undirected
/// edge removal — distances must match arc-exactly across engines.
#[test]
fn link_sweeps_agree_in_both_directions() {
    forall!(cases(96), (small_graph(), 0u64..1_000_000), |(
        (n, edges),
        seed,
    )| {
        let mut next = lcg(seed ^ 0xABCD);
        let modulus = if seed % 2 == 1 { 3 } else { 40 };
        let arcs: Vec<(NodeId, NodeId, Cost)> = edges
            .iter()
            .flat_map(|&(u, v)| {
                [
                    (NodeId(u), NodeId(v), Cost::from_units(next() % modulus + 1)),
                    (NodeId(v), NodeId(u), Cost::from_units(next() % modulus + 1)),
                ]
            })
            .collect();
        let g = LinkWeightedDigraph::from_arcs(n, arcs);
        let mut radix = DijkstraWorkspace::with_capacity(n);
        for direction in [Direction::Forward, Direction::Backward] {
            let origin = NodeId(0);
            let opts = DijkstraOptions::default();
            dijkstra_in(&mut radix, &g, origin, direction, opts);
            let binary = binary_link_sweep(&g, origin, direction, opts);
            let step = |p: NodeId, v: NodeId| match direction {
                Direction::Forward => g.arc_cost(p, v),
                Direction::Backward => g.arc_cost(v, p),
            };
            assert_sweeps_agree(&radix, &binary, n, origin, step);
        }
        // Undirected edge removal along each original pair.
        for &(u, v) in edges.iter().take(4) {
            let opts = DijkstraOptions {
                avoid: None,
                avoid_edge: Some((NodeId(u), NodeId(v))),
                target: None,
            };
            dijkstra_in(&mut radix, &g, NodeId(0), Direction::Forward, opts);
            let binary = binary_link_sweep(&g, NodeId(0), Direction::Forward, opts);
            for w in (0..n).map(NodeId::new) {
                prop_assert_eq!(radix.dist(w), binary.dist(w));
            }
        }
        Ok(())
    });
}

/// Early-exit sweeps settle engine-dependent prefixes, so only the
/// target's distance is comparable — and it must match the full sweep.
#[test]
fn early_exit_targets_agree() {
    forall!(cases(96), (small_graph(), 0u64..1_000_000), |(
        (n, edges),
        seed,
    )| {
        let mut next = lcg(seed ^ 0x5EED);
        let costs: Vec<u64> = (0..n).map(|_| next() % 6).collect();
        let g = NodeWeightedGraph::from_pairs_units(&edges, &costs);
        let mut radix = DijkstraWorkspace::with_capacity(n);
        for t in (1..n).map(NodeId::new) {
            let opts = NodeDijkstraOptions {
                avoid: None,
                target: Some(t),
            };
            node_dijkstra_in(&mut radix, &g, NodeId(0), opts);
            let binary = binary_node_sweep(&g, NodeId(0), opts);
            prop_assert_eq!(radix.dist(t), binary.dist(t));
            node_dijkstra_in(&mut radix, &g, NodeId(0), NodeDijkstraOptions::default());
            prop_assert_eq!(radix.dist(t), binary.dist(t));
        }
        Ok(())
    });
}

/// Wireless-scale seeded instances: connected unit-disk and G(n, p)
/// topologies with micro-unit costs — the regime the benchmarks measure.
#[test]
fn engines_agree_on_wireless_topologies() {
    for seed in [0xA1u64, 0xA2, 0xA3] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let side = (96.0f64 * 300.0 * 300.0 * std::f64::consts::PI / 12.0).sqrt();
        let adj = loop {
            let (_, adj) = random_udg(96, Region::new(side, side), 300.0, &mut rng);
            if is_connected(&adj) {
                break adj;
            }
        };
        check_wireless_instance(adj, &mut rng);

        let mut rng = SmallRng::seed_from_u64(seed ^ 0xE5);
        let adj = loop {
            let adj = erdos_renyi(64, 0.08, &mut rng);
            if is_connected(&adj) {
                break adj;
            }
        };
        check_wireless_instance(adj, &mut rng);
    }
}

fn check_wireless_instance(adj: Adjacency, rng: &mut SmallRng) {
    let n = adj.num_nodes();
    let costs: Vec<Cost> = (0..n)
        .map(|_| Cost::from_micros(rng.gen_range(0u64..100_000_000)))
        .collect();
    let g = NodeWeightedGraph::new(adj, costs);
    let mut radix = DijkstraWorkspace::with_capacity(n);
    for origin in [NodeId(0), NodeId::new(n / 2), NodeId::new(n - 1)] {
        let opts = NodeDijkstraOptions::default();
        node_dijkstra_in(&mut radix, &g, origin, opts);
        let binary = binary_node_sweep(&g, origin, opts);
        assert_sweeps_agree(&radix, &binary, n, origin, |_, v| g.cost(v));
    }
}
