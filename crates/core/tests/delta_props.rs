//! Soundness property for [`GraphDelta`] classification: the dirty
//! region is **conservative**. For any epoch pair, every node whose
//! shortest-path distance worsens must land inside a classified dirty
//! slice, and every node whose distance changes at all must be touched
//! by the repair pass (dirty-invalidated or popped from the re-seeded
//! Dijkstra). If classification ever under-approximates, the warm
//! tables silently go stale — this suite is the tripwire.
//!
//! Shrinking `forall!` with seed reporting: a failure prints the
//! `TRUTHCAST_SEED` that reproduces it, and the generators shrink the
//! epoch pair toward a minimal divergent delta.

use truthcast_core::all_sources::AllSourcesEngine;
use truthcast_core::delta::{
    classify_delta, EpochOutcome, EpochStep, GraphDelta, IncrementalEngine,
};
use truthcast_graph::generators::erdos_renyi;
use truthcast_graph::spt::Spt;
use truthcast_graph::{adjacency_from_pairs, Cost, NodeId, NodeMap, NodeWeightedGraph};
use truthcast_rt::{bools, cases, forall, prop_assert, prop_assert_eq, Rng, SeedableRng, SmallRng};

/// An adjacent epoch pair: an Erdős–Rényi base, then a burst of edge
/// flips and cost changes — increases and decreases both, so the pair
/// exercises dirty slices and decrease seeds together.
fn epoch_pair(seed: u64, ties: bool) -> (NodeWeightedGraph, NodeWeightedGraph) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(5..20);
    let base = erdos_renyi(n, rng.gen_range(0.15..0.5), &mut rng);
    let mut edges: Vec<(u32, u32)> = base.edges().map(|(u, v)| (u.0, v.0)).collect();
    let unit = |rng: &mut SmallRng| {
        Cost::from_units(if ties {
            rng.gen_range(0..4)
        } else {
            rng.gen_range(0..500_000)
        })
    };
    let mut costs: Vec<Cost> = (0..n).map(|_| unit(&mut rng)).collect();
    let g0 = NodeWeightedGraph::new(adjacency_from_pairs(n, &edges), costs.clone());
    for _ in 0..rng.gen_range(1..6usize) {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u == v {
            continue;
        }
        let pair = (u.min(v), u.max(v));
        if let Some(i) = edges.iter().position(|&e| e == pair) {
            edges.swap_remove(i);
        } else {
            edges.push(pair);
        }
    }
    for _ in 0..rng.gen_range(0..3usize) {
        let v = rng.gen_range(0..n);
        costs[v] = unit(&mut rng);
    }
    let g1 = NodeWeightedGraph::new(adjacency_from_pairs(n, &edges), costs.clone());
    (g0, g1)
}

/// Classification-level half: any node whose distance *worsens* between
/// epochs (including going unreachable) must be inside a dirty slice —
/// decrease seeds are only allowed to improve distances, never to
/// explain damage.
///
/// Engine-level half: after a forced repair (threshold 1.0), every node
/// whose distance changed in either direction must appear in the repair
/// pass's touched set, and the repaired table must equal the cold one.
#[test]
fn dirty_region_is_conservative() {
    forall!(cases(64), (0u64..1 << 48, bools()), |(seed, ties)| {
        let (g0, g1) = epoch_pair(seed, ties);
        let n = g0.num_nodes();
        let ap = NodeId((seed % n as u64) as u32);

        let mut cold0 = AllSourcesEngine::with_threads(1);
        cold0.price_all_sources(&g0, ap);
        let (dist0, parent0) = cold0.tables();
        let (dist0, parent0) = (dist0.to_vec(), parent0.to_vec());
        let mut cold1 = AllSourcesEngine::with_threads(1);
        cold1.price_all_sources(&g1, ap);
        let dist1 = cold1.tables().0.to_vec();

        let delta = GraphDelta::between(&g0, &g1).expect("same node count");
        let iv = Spt::from_parents(ap, &parent0).intervals();
        let region = classify_delta(&delta, &iv, &parent0, ap);
        for v in 0..n {
            if dist1[v] > dist0[v] {
                prop_assert!(
                    region.dirty[v],
                    "node {} worsened ({:?} -> {:?}) outside the dirty region\ndelta: {:?}",
                    v,
                    dist0[v],
                    dist1[v],
                    delta
                );
            }
        }

        let mut engine = IncrementalEngine::with_threads(1).with_damage_threshold(1.0);
        engine.price_epoch(&g0, ap, None);
        engine.price_epoch(&g1, ap, EpochStep::between(&g0, &g1, None).as_ref());
        prop_assert!(
            matches!(
                engine.last_outcome(),
                EpochOutcome::Repaired { .. } | EpochOutcome::Reused
            ),
            "{:?}",
            engine.last_outcome()
        );
        prop_assert_eq!(
            engine.tables().0,
            &dist1[..],
            "repair missed a distance change"
        );
        let touched = engine.last_touched();
        for v in 0..n {
            if dist0[v] != dist1[v] {
                prop_assert!(
                    touched[v],
                    "node {} changed ({:?} -> {:?}) but repair never touched it\ndelta: {:?}",
                    v,
                    dist0[v],
                    dist1[v],
                    delta
                );
            }
        }
        Ok(())
    });
}

/// `GraphDelta::between` is a faithful diff: applying it mentally to
/// `g0` explains every structural difference — here checked by
/// round-trip counting (an empty delta iff the graphs are equal, and
/// every reported change really differs between the graphs).
#[test]
fn delta_between_reports_real_changes_only() {
    forall!(cases(64), (0u64..1 << 48, bools()), |(seed, ties)| {
        let (g0, g1) = epoch_pair(seed, ties);
        let delta = GraphDelta::between(&g0, &g1).expect("same node count");
        prop_assert_eq!(delta.is_empty(), g0 == g1);
        for &(v, old, new) in &delta.costs_changed {
            prop_assert_eq!(g0.cost(v), old);
            prop_assert_eq!(g1.cost(v), new);
            prop_assert!(old != new);
        }
        for &(u, v) in &delta.edges_added {
            prop_assert!(
                g1.neighbors(u).contains(&v) && !g0.neighbors(u).contains(&v),
                "added edge ({:?},{:?}) not a real addition",
                u,
                v
            );
        }
        for &(u, v) in &delta.edges_removed {
            prop_assert!(
                g0.neighbors(u).contains(&v) && !g1.neighbors(u).contains(&v),
                "removed edge ({:?},{:?}) not a real removal",
                u,
                v
            );
        }
        Ok(())
    });
}

/// The epoch step over a same-node-set pair is the merge-walk diff,
/// whichever way the identity is stated: no map, or an explicit
/// identity [`NodeMap`]. Its delta equals [`GraphDelta::between`] and
/// the projecting [`GraphDelta::between_mapped`] through the identity,
/// entry for entry and in the same order, and the step is empty
/// exactly when the graphs are equal.
#[test]
fn identity_step_is_the_merge_walk_diff() {
    forall!(cases(64), (0u64..1 << 48, bools(), bools()), |(
        seed,
        ties,
        same,
    )| {
        let (g0, g1) = epoch_pair(seed, ties);
        let g1 = if same { g0.clone() } else { g1 };
        let n = g0.num_nodes();
        let identity = NodeMap::identity(n);
        let merged = GraphDelta::between(&g0, &g1).expect("same node count");
        let projected = GraphDelta::between_mapped(&g0, &g1, &identity).delta;
        for map in [None, Some(&identity)] {
            let step = EpochStep::between(&g0, &g1, map).expect("same node count");
            prop_assert_eq!(step.delta(), &merged, "step vs between");
            prop_assert_eq!(step.delta(), &projected, "step vs between_mapped");
            prop_assert_eq!(step.is_empty(), g0 == g1);
        }
        Ok(())
    });
}
