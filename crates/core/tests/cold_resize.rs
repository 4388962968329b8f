//! Regression: a node-count change between epochs must be surfaced as
//! [`EpochOutcome::ColdResize`] (with the `core.delta.cold_resizes`
//! counter), not silently folded into `Cold` — the service's per-shard
//! epoch loop reports churn epochs from this signal.
//!
//! Single-test binary: asserts on the global `truthcast-obs` counters.

use truthcast_core::all_sources_payments;
use truthcast_core::delta::{EpochOutcome, IncrementalEngine};
use truthcast_graph::{NodeId, NodeMap, NodeWeightedGraph};

#[test]
fn node_count_change_reports_cold_resize() {
    truthcast_obs::enable();
    truthcast_obs::reset();

    let ap = NodeId(0);
    let e0 = NodeWeightedGraph::from_pairs_units(&[(0, 1), (1, 3), (0, 2), (2, 3)], &[0, 5, 7, 0]);
    // Node 4 joins, hanging off node 3.
    let e1 = NodeWeightedGraph::from_pairs_units(
        &[(0, 1), (1, 3), (0, 2), (2, 3), (3, 4)],
        &[0, 5, 7, 2, 0],
    );
    // Node 4 leaves again.
    let e2 = e0.clone();

    let mut engine = IncrementalEngine::with_threads(1);
    assert_eq!(*engine.price_epoch(&e0, ap), all_sources_payments(&e0, ap));
    assert_eq!(engine.last_outcome(), EpochOutcome::Cold);

    assert_eq!(*engine.price_epoch(&e1, ap), all_sources_payments(&e1, ap));
    assert_eq!(
        engine.last_outcome(),
        EpochOutcome::ColdResize { from: 4, to: 5 }
    );

    assert_eq!(*engine.price_epoch(&e2, ap), all_sources_payments(&e2, ap));
    assert_eq!(
        engine.last_outcome(),
        EpochOutcome::ColdResize { from: 5, to: 4 }
    );

    // The engine recovers its incremental footing after a resize: an
    // unchanged follow-up epoch is a zero-cost reuse.
    assert_eq!(*engine.price_epoch(&e2, ap), all_sources_payments(&e2, ap));
    assert_eq!(engine.last_outcome(), EpochOutcome::Reused);

    // An AP change stays plain Cold — resize is specifically churn.
    let other_ap = NodeId(3);
    engine.price_epoch(&e2, other_ap);
    assert_eq!(engine.last_outcome(), EpochOutcome::Cold);

    // The warm cross-resize path: the same join epoch under an identity
    // map plus one birth repairs through the churn instead of going
    // cold, and counts under `core.delta.warm_resizes`.
    let mut warm = IncrementalEngine::with_threads(1).with_damage_threshold(1.0);
    warm.price_epoch(&e0, ap);
    assert_eq!(
        *warm.price_epoch_mapped(&e1, ap, &NodeMap::join(4, 1)),
        all_sources_payments(&e1, ap)
    );
    assert!(
        matches!(
            warm.last_outcome(),
            EpochOutcome::WarmResize {
                born: 1,
                died: 0,
                ..
            }
        ),
        "{:?}",
        warm.last_outcome()
    );

    // Past the damage threshold the mapped path still exists and falls
    // back to a cold sweep — reported as `Fallback`, never `ColdResize`
    // (the caller supplied identities; only the repair was abandoned).
    let mut strict = IncrementalEngine::with_threads(1).with_damage_threshold(0.0);
    strict.price_epoch(&e0, ap);
    assert_eq!(
        *strict.price_epoch_mapped(&e1, ap, &NodeMap::join(4, 1)),
        all_sources_payments(&e1, ap)
    );
    assert!(
        matches!(strict.last_outcome(), EpochOutcome::Fallback { .. }),
        "{:?}",
        strict.last_outcome()
    );

    let table = truthcast_obs::summary();
    let snap = truthcast_obs::snapshot();
    truthcast_obs::disable();
    assert_eq!(snap.counter("core.delta.cold_resizes"), 2);
    assert_eq!(snap.counter("core.delta.warm_resizes"), 1);
    assert_eq!(snap.counter("core.delta.born"), 1);
    assert_eq!(snap.counter("core.delta.fallbacks"), 1);
    // Counters are registered at engine construction, so ones this run
    // never touched still print as explicit zeros in the summary.
    assert_eq!(snap.counter("core.delta.died"), 0);
    assert!(table.contains("core.delta.died"), "{table}");
    assert!(table.contains("core.delta.warm_resizes"), "{table}");
}
