//! Audit-record half of the incremental battery: every source the warm
//! [`IncrementalEngine`] re-prices in an epoch must emit exactly the
//! payment-audit records a cold sweep of that epoch emits for the same
//! source.
//!
//! One `#[test]` on purpose: the obs collector is process-global, so
//! this binary enables it alone (same isolation rule as
//! `profile_spans.rs`). The audit contract (documented in
//! `truthcast_core::delta`) is per re-priced source, not whole-run:
//! sources untouched by an epoch's repair keep the records of the epoch
//! that actually priced them, so the full multisets legitimately differ
//! — but any record the warm engine *does* emit must be cold-identical.

use std::collections::BTreeMap;

use truthcast_core::all_sources::AllSourcesEngine;
use truthcast_core::delta::{EpochOutcome, EpochStep, IncrementalEngine};
use truthcast_graph::{NodeId, NodeWeightedGraph};
use truthcast_obs::PaymentAudit;

/// Audits grouped by source, each group sorted field-wise (worker
/// interleaving reorders raw emission order across sources).
fn by_source(audits: Vec<PaymentAudit>) -> BTreeMap<u32, Vec<PaymentAudit>> {
    let mut map: BTreeMap<u32, Vec<PaymentAudit>> = BTreeMap::new();
    for a in audits {
        map.entry(a.source).or_default().push(a);
    }
    for group in map.values_mut() {
        group.sort_by_key(|a| {
            (
                a.relay,
                a.lcp_cost_micros,
                a.replacement_cost_micros,
                a.payment_micros,
            )
        });
    }
    map
}

/// Runs `run` against a clean collector and returns its audit records
/// grouped by source.
fn capture<F: FnOnce()>(run: F) -> BTreeMap<u32, Vec<PaymentAudit>> {
    truthcast_obs::reset();
    run();
    by_source(truthcast_obs::snapshot().audits)
}

#[test]
fn repriced_sources_emit_cold_identical_audits() {
    truthcast_obs::enable();

    // A chain with a shortcut whose cost changes across epochs: epoch 2
    // reroutes part of the tree (slice repair re-prices one branch),
    // epoch 3 is bit-identical (zero-delta reuse: no audits at all).
    let pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4), (2, 5)];
    let g0 = NodeWeightedGraph::from_pairs_units(&pairs, &[0, 2, 3, 4, 9, 1]);
    let g1 = NodeWeightedGraph::from_pairs_units(&pairs, &[0, 2, 3, 4, 1, 1]);
    let graphs = [g0.clone(), g1.clone(), g1];
    let ap = NodeId(0);

    let mut engine = IncrementalEngine::with_threads(2).with_damage_threshold(1.0);
    for (epoch, g) in graphs.iter().enumerate() {
        let mut got = Default::default();
        let step = graphs[..epoch]
            .last()
            .and_then(|p| EpochStep::between(p, g, None));
        let warm = capture(|| got = engine.price_epoch(g, ap, step.as_ref()));
        let mut expected = Vec::new();
        let cold = capture(|| {
            expected = AllSourcesEngine::with_threads(2).price_all_sources(g, ap);
        });
        assert_eq!(*got, expected, "payments diverged at epoch {epoch}");

        let outcome = engine.last_outcome();
        // Whatever the warm engine audited must match cold record for
        // record — repair may legally skip sources, never alter them.
        for (source, group) in &warm {
            assert_eq!(
                Some(group),
                cold.get(source),
                "epoch {epoch} ({outcome:?}): warm audits for source {source} \
                 differ from the cold sweep"
            );
        }
        match epoch {
            0 => {
                // The first pass is a full cold sweep: identical audits.
                assert_eq!(outcome, EpochOutcome::Cold);
                assert_eq!(warm, cold, "cold first pass must audit everything");
            }
            1 => {
                // The cost change re-prices at least the rerouted branch.
                assert!(
                    matches!(outcome, EpochOutcome::Repaired { .. }),
                    "{outcome:?}"
                );
                assert!(!warm.is_empty(), "repair epoch must re-price something");
            }
            _ => {
                // Zero delta: nothing re-priced, nothing audited.
                assert_eq!(outcome, EpochOutcome::Reused);
                assert!(warm.is_empty(), "reused epoch must audit nothing: {warm:?}");
            }
        }
    }

    truthcast_obs::disable();
    truthcast_obs::reset();
}
