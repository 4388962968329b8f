//! Differential property suite: the batch payment engine must be
//! **bit-identical** to the per-session algorithms at every thread count.
//!
//! The engine's determinism contract (DESIGN.md §8) is that sharding a
//! batch across workers changes wall-clock time and nothing else. These
//! tests pin that contract on random unit-disk and Erdős–Rényi instances
//! across thread counts {1, 2, 7, 16}, with every session shape the
//! engine must handle: multi-relay routes, zero-relay direct links,
//! unreachable destinations (an always-isolated node), duplicate
//! sessions, and mixed destinations sharing the cache.
//!
//! Case count scales with `TRUTHCAST_CASES` (the CI heavy battery sets
//! it); a failure prints the `TRUTHCAST_SEED` that reproduces it.

use truthcast_core::batch::{PaymentEngine, SessionQuery};
use truthcast_core::fast_payments;
use truthcast_graph::generators::{erdos_renyi, random_udg};
use truthcast_graph::geometry::Region;
use truthcast_graph::{Adjacency, Cost, NodeId, NodeWeightedGraph};
use truthcast_rt::{bools, cases, forall, prop_assert_eq, Rng, SeedableRng, SmallRng};

/// The thread counts every batch is re-priced under. Includes 1 (the
/// inline path), an even split, a prime that never divides the session
/// count evenly, and more workers than most batches have sessions.
const THREADS: [usize; 4] = [1, 2, 7, 16];

/// A random topology: UDG (sparse, organically disconnected) or
/// Erdős–Rényi, with one guaranteed-isolated node appended so every
/// batch exercises the unreachable-destination path.
fn random_topology(seed: u64, udg: bool) -> Adjacency {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(5..20);
    let adj = if udg {
        let range = rng.gen_range(400.0..900.0);
        let (_, adj) = random_udg(n, Region::new(2000.0, 2000.0), range, &mut rng);
        adj
    } else {
        erdos_renyi(n, rng.gen_range(0.15..0.55), &mut rng)
    };
    // Re-home the edges into an (n+1)-node graph: node n stays isolated.
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for (u, v) in adj.edges() {
        edges.push((u.0, v.0));
    }
    truthcast_graph::adjacency_from_pairs(n + 1, &edges)
}

fn random_costs(n: usize, seed: u64, tie_heavy: bool) -> Vec<Cost> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xc0ffee);
    (0..n)
        .map(|_| {
            Cost::from_units(if tie_heavy {
                rng.gen_range(0..4)
            } else {
                rng.gen_range(0..500_000)
            })
        })
        .collect()
}

/// Every node of the topology sessions toward `ap` — direct neighbors
/// (zero relays), distant nodes (multi-relay), the isolated node
/// (unreachable), plus one duplicate to hit the warm cache twice.
fn sessions_to_ap(n: usize, ap: NodeId) -> Vec<SessionQuery> {
    let mut qs: Vec<SessionQuery> = (0..n as u32)
        .map(NodeId)
        .filter(|&s| s != ap)
        .map(|s| SessionQuery::new(s, ap))
        .collect();
    let first = qs[0];
    qs.push(first); // duplicate session: same answer, cache hit
    qs
}

/// Node-weighted model: batch output equals `fast_payments` per session,
/// at every thread count, on UDG and Erdős–Rényi instances with both
/// wide-range and tie-heavy cost profiles.
#[test]
fn node_batch_matches_fast_payments() {
    forall!(cases(48), (0u64..1 << 48, bools(), bools()), |(
        seed,
        udg,
        ties,
    )| {
        let adj = random_topology(seed, udg);
        let n = adj.num_nodes();
        let g = NodeWeightedGraph::new(adj, random_costs(n, seed, ties));
        let ap = NodeId(0);
        let qs = sessions_to_ap(n, ap);
        let expected: Vec<_> = qs
            .iter()
            .map(|q| fast_payments(&g, q.source, q.target))
            .collect();
        for threads in THREADS {
            let mut engine = PaymentEngine::with_threads(&g, threads);
            let got = engine.price_batch(&qs);
            prop_assert_eq!(&got, &expected, "threads={}", threads);
            prop_assert_eq!(engine.cached_targets(), 1);
        }
        Ok(())
    });
}

/// Mixed destinations in one batch: the cache holds one table per
/// distinct destination and every session still matches its per-session
/// run.
#[test]
fn mixed_destination_batch_matches() {
    forall!(cases(32), (0u64..1 << 48, bools()), |(seed, ties)| {
        let adj = random_topology(seed, false);
        let n = adj.num_nodes();
        let g = NodeWeightedGraph::new(adj, random_costs(n, seed, ties));
        // Sessions fan out to two access points (and to the isolated node).
        let aps = [NodeId(0), NodeId(1), NodeId(n as u32 - 1)];
        let mut qs = Vec::new();
        for &ap in &aps {
            for s in 0..n as u32 {
                let s = NodeId(s);
                if s != ap {
                    qs.push(SessionQuery::new(s, ap));
                }
            }
        }
        let expected: Vec<_> = qs
            .iter()
            .map(|q| fast_payments(&g, q.source, q.target))
            .collect();
        for threads in THREADS {
            let mut engine = PaymentEngine::with_threads(&g, threads);
            let got = engine.price_batch(&qs);
            prop_assert_eq!(&got, &expected, "threads={}", threads);
            prop_assert_eq!(engine.cached_targets(), aps.len());
        }
        Ok(())
    });
}

/// Empty batches are fine at every thread count.
#[test]
fn empty_batch_is_empty() {
    let g = NodeWeightedGraph::from_pairs_units(&[(0, 1)], &[0, 0]);
    for threads in THREADS {
        let mut engine = PaymentEngine::with_threads(&g, threads);
        assert_eq!(engine.price_batch(&[]), Vec::new());
        assert_eq!(engine.cached_targets(), 0);
    }
}
