//! Published tables are shared, never mutated: `price_epoch` hands out
//! an `Arc` that a zero-delta epoch returns again unchanged (no copy),
//! and that no later epoch writes into. A caller holding an epoch's
//! table across a repair epoch or a warm-resize epoch still holds that
//! epoch's cold-oracle table. A table nobody else holds is repaired in
//! place: the engine keeps one table, not a working copy beside it.

use std::sync::Arc;

use truthcast_core::all_sources_payments;
use truthcast_core::delta::{EpochOutcome, EpochStep, IncrementalEngine};
use truthcast_graph::generators::{pairs_within_range, random_placement};
use truthcast_graph::geometry::Region;
use truthcast_graph::{adjacency_from_pairs, Cost, NodeId, NodeMap, NodeWeightedGraph};
use truthcast_rt::{cases, forall, prop_assert, prop_assert_eq, Rng, SeedableRng, SmallRng};

/// A unit-disk instance with random costs.
fn udg(n: usize, rng: &mut SmallRng) -> NodeWeightedGraph {
    let points = random_placement(n, Region::new(1000.0, 1000.0), rng);
    let pairs: Vec<(u32, u32)> = pairs_within_range(&points, 400.0)
        .into_iter()
        .map(|(u, v)| (u.0, v.0))
        .collect();
    let costs = (0..n)
        .map(|_| Cost::from_units(rng.gen_range(1..20)))
        .collect();
    NodeWeightedGraph::new(adjacency_from_pairs(n, &pairs), costs)
}

/// `g` plus one newborn node at index `n`, linked to two survivors.
fn with_newborn(g: &NodeWeightedGraph, rng: &mut SmallRng) -> NodeWeightedGraph {
    let n = g.num_nodes();
    let mut pairs: Vec<(u32, u32)> = g.adjacency().edges().map(|(u, v)| (u.0, v.0)).collect();
    for _ in 0..2 {
        pairs.push((rng.gen_range(0..n as u32), n as u32));
    }
    let mut costs = g.costs().to_vec();
    costs.push(Cost::from_units(rng.gen_range(1..20)));
    NodeWeightedGraph::new(adjacency_from_pairs(n + 1, &pairs), costs)
}

#[test]
fn published_tables_are_shared_and_never_mutated() {
    forall!(cases(16), (0u64..1 << 48,), |(seed,)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(12..40);
        let g0 = udg(n, &mut rng);
        let ap = NodeId(0);
        let mut engine = IncrementalEngine::with_threads(2).with_damage_threshold(1.0);

        let t0 = engine.price_epoch(&g0, ap, None);
        let again = engine.price_epoch(&g0, ap, EpochStep::between(&g0, &g0, None).as_ref());
        prop_assert_eq!(engine.last_outcome(), EpochOutcome::Reused);
        prop_assert!(
            Arc::ptr_eq(&t0, &again),
            "a zero-delta epoch copies nothing"
        );
        let identity = EpochStep::between(&g0, &g0, Some(&NodeMap::identity(n)));
        let mapped = engine.price_epoch(&g0, ap, identity.as_ref());
        prop_assert!(Arc::ptr_eq(&t0, &mapped), "nor does an identity-mapped one");

        // A repair epoch publishes a fresh table and leaves t0 alone.
        let v = NodeId(rng.gen_range(1..n as u32));
        // Above every initial cost, so the graph really changes.
        let g1 = g0.with_declared(v, Cost::from_units(rng.gen_range(20..40)));
        let t1 = engine.price_epoch(&g1, ap, EpochStep::between(&g0, &g1, None).as_ref());
        prop_assert!(
            matches!(engine.last_outcome(), EpochOutcome::Repaired { .. }),
            "{:?}",
            engine.last_outcome()
        );
        prop_assert_eq!(&*t1, &all_sources_payments(&g1, ap), "repair epoch");
        prop_assert_eq!(&*t0, &all_sources_payments(&g0, ap), "held across a repair");

        // So does a warm-resize epoch, for t0 and t1 alike.
        let g2 = with_newborn(&g1, &mut rng);
        let step = EpochStep::between(&g1, &g2, Some(&NodeMap::join(n, 1)));
        let t2 = engine.price_epoch(&g2, ap, step.as_ref());
        prop_assert!(
            matches!(engine.last_outcome(), EpochOutcome::WarmResize { .. }),
            "{:?}",
            engine.last_outcome()
        );
        prop_assert_eq!(&*t2, &all_sources_payments(&g2, ap), "warm-resize epoch");
        prop_assert_eq!(&*t1, &all_sources_payments(&g1, ap), "held across a resize");
        prop_assert_eq!(&*t0, &all_sources_payments(&g0, ap), "held across both");
        Ok(())
    });
}

#[test]
fn a_dropped_table_is_repaired_in_place() {
    forall!(cases(16), (0u64..1 << 48,), |(seed,)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(12..40);
        let g0 = udg(n, &mut rng);
        let ap = NodeId(0);
        let mut engine = IncrementalEngine::with_threads(2).with_damage_threshold(1.0);

        // The caller drops the table, so the engine holds the only one.
        let ptr = Arc::as_ptr(&engine.price_epoch(&g0, ap, None));
        let v = NodeId(rng.gen_range(1..n as u32));
        let g1 = g0.with_declared(v, Cost::from_units(rng.gen_range(20..40)));
        let t1 = engine.price_epoch(&g1, ap, EpochStep::between(&g0, &g1, None).as_ref());
        prop_assert!(
            matches!(engine.last_outcome(), EpochOutcome::Repaired { .. }),
            "{:?}",
            engine.last_outcome()
        );
        prop_assert_eq!(Arc::as_ptr(&t1), ptr, "a repair epoch copies nothing");
        prop_assert_eq!(&*t1, &all_sources_payments(&g1, ap), "repair epoch");
        Ok(())
    });
}
