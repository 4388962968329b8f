//! Golden end-to-end payments: three hand-checkable topologies with the
//! LCP route and every per-node payment pinned to exact fixed-point
//! values worked out from the paper's formula
//! `p_k = ‖P(s,t,d|^k ∞)‖ − ‖P(s,t,d)‖ + d_k` (§III-B).
//!
//! These are regression anchors: any change to path selection,
//! tie-breaking, or payment arithmetic that moves a single micro-unit
//! fails here with a readable diff.

use truthcast::core::all_sources::AllSourcesEngine;
use truthcast::core::batch::{PaymentEngine, SessionQuery};
use truthcast::core::delta::{EpochOutcome, EpochStep, IncrementalEngine};
use truthcast::core::{fast_payments, naive_payments};
use truthcast::graph::{Cost, NodeId, NodeWeightedGraph};
use truthcast::obs;

fn units(u: u64) -> Cost {
    Cost::from_units(u)
}

/// Diamond: two disjoint 2-hop routes 0→3.
///
/// ```text
///       1 (cost 5)
///      / \
///     0   3        costs: [0, 5, 7, 0]
///      \ /
///       2 (cost 7)
/// ```
///
/// LCP is 0-1-3 at cost 5; evicting relay 1 forces the cost-7 route, so
/// `p_1 = 7 − 5 + 5 = 7`.
#[test]
fn golden_diamond() {
    let g = NodeWeightedGraph::from_pairs_units(&[(0, 1), (0, 2), (1, 3), (2, 3)], &[0, 5, 7, 0]);
    let p = fast_payments(&g, NodeId(0), NodeId(3)).expect("connected");

    assert_eq!(p.path, vec![NodeId(0), NodeId(1), NodeId(3)]);
    assert_eq!(p.lcp_cost, units(5));
    assert_eq!(p.payments, vec![(NodeId(1), units(7))]);
    assert_eq!(p.total_payment(), units(7));
    assert!(!p.has_monopoly());
    assert_eq!(
        fast_payments(&g, NodeId(0), NodeId(3)),
        naive_payments(&g, NodeId(0), NodeId(3))
    );
}

/// Two-relay chain with one expensive detour.
///
/// ```text
///     0 - 1 - 2 - 4      costs: c1 = 2, c2 = 3
///      \         /
///       --- 3 ---         c3 = 10 (endpoints cost 0)
/// ```
///
/// LCP is 0-1-2-4 at cost 5. Evicting either relay forces the detour of
/// cost 10, so `p_1 = 10 − 5 + 2 = 7` and `p_2 = 10 − 5 + 3 = 8`: both
/// relays receive the same markup `10 − 5 = 5` over their declared cost,
/// and the source overpays the LCP by exactly 2 × 5.
#[test]
fn golden_chain_with_detour() {
    let g = NodeWeightedGraph::from_pairs_units(
        &[(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)],
        &[0, 2, 3, 10, 0],
    );
    let p = fast_payments(&g, NodeId(0), NodeId(4)).expect("connected");

    assert_eq!(p.path, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(4)]);
    assert_eq!(p.lcp_cost, units(5));
    assert_eq!(
        p.payments,
        vec![(NodeId(1), units(7)), (NodeId(2), units(8))]
    );
    assert_eq!(p.payment_to(NodeId(1)), units(7));
    assert_eq!(p.payment_to(NodeId(2)), units(8));
    assert_eq!(p.total_payment(), units(15));
    assert!(!p.has_monopoly());
    assert_eq!(
        fast_payments(&g, NodeId(0), NodeId(4)),
        naive_payments(&g, NodeId(0), NodeId(4))
    );
}

/// Bridge monopoly: two triangles sharing the articulation node 2.
///
/// ```text
///     0 --- 1         3 --- 4
///      \   /    \    /   /
///       \ /      2 ------         costs: [0, 1, 2, 1, 0]
///        +------/
/// ```
///
/// Edges: (0,1), (0,2), (1,2), (2,3), (2,4), (3,4). Node 2 is a cut
/// vertex between {0,1} and {3,4}: every 0→4 route crosses it, so its
/// replacement path cost is infinite and the VCG payment is unbounded —
/// the paper's monopoly case, surfaced as [`Cost::INF`].
#[test]
fn golden_bridge_monopoly() {
    let g = NodeWeightedGraph::from_pairs_units(
        &[(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)],
        &[0, 1, 2, 1, 0],
    );
    let p = fast_payments(&g, NodeId(0), NodeId(4)).expect("connected");

    assert_eq!(p.path, vec![NodeId(0), NodeId(2), NodeId(4)]);
    assert_eq!(p.lcp_cost, units(2));
    assert_eq!(p.payments.len(), 1);
    assert_eq!(p.payments[0].0, NodeId(2));
    assert!(
        p.payments[0].1.is_inf(),
        "articulation relay must be a monopoly"
    );
    assert!(p.has_monopoly());
    assert_eq!(p.total_payment(), Cost::INF);
    assert_eq!(
        fast_payments(&g, NodeId(0), NodeId(4)),
        naive_payments(&g, NodeId(0), NodeId(4))
    );
}

/// The bridge-monopoly topology priced as a 3-session batch toward the
/// access point 4, with tracing on: the batch engine must reproduce the
/// hand-derived goldens session for session, share one cached
/// destination table, and emit audit records that mechanically re-derive
/// every payment (`p^k = ‖P_{-v_k}‖ − ‖P‖ + d_k`, with `INF` for the
/// monopoly).
///
/// Hand derivation (costs `[0, 1, 2, 1, 0]`):
/// * `0→4`: LCP is 0-2-4 (relay cost 2; the detours 0-1-2-4 and 0-2-3-4
///   both cost 3). Node 2 is a cut vertex, so its replacement path is
///   infinite → payment `INF`.
/// * `1→4`: LCP is 1-2-4 (relay cost 2, ties with 1-0-2-4 broken by the
///   Dijkstra relaxation order toward the direct parent). Same monopoly.
/// * `3→4`: the direct link — zero relays, LCP cost 0, no payments, and
///   therefore no audit records.
#[test]
fn golden_bridge_monopoly_multi_session_batch() {
    let g = NodeWeightedGraph::from_pairs_units(
        &[(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)],
        &[0, 1, 2, 1, 0],
    );
    let sessions = [
        SessionQuery::new(NodeId(0), NodeId(4)),
        SessionQuery::new(NodeId(1), NodeId(4)),
        SessionQuery::new(NodeId(3), NodeId(4)),
    ];

    obs::enable();
    let mut engine = PaymentEngine::with_threads(&g, 2);
    let priced = engine.price_batch(&sessions);
    let snap = obs::snapshot();
    obs::disable();

    // One access point → one cached destination table for all sessions.
    assert_eq!(engine.cached_targets(), 1);

    // Session 0→4: monopoly through the cut vertex 2.
    let p0 = priced[0].as_ref().expect("0→4 connected");
    assert_eq!(p0.path, vec![NodeId(0), NodeId(2), NodeId(4)]);
    assert_eq!(p0.lcp_cost, units(2));
    assert_eq!(p0.payments.len(), 1);
    assert_eq!(p0.payments[0].0, NodeId(2));
    assert!(p0.payments[0].1.is_inf());

    // Session 1→4: same monopoly from the other triangle corner.
    let p1 = priced[1].as_ref().expect("1→4 connected");
    assert_eq!(p1.path, vec![NodeId(1), NodeId(2), NodeId(4)]);
    assert_eq!(p1.lcp_cost, units(2));
    assert_eq!(p1.payments, vec![(NodeId(2), Cost::INF)]);

    // Session 3→4: the direct link, zero relays.
    let p3 = priced[2].as_ref().expect("3→4 connected");
    assert_eq!(p3.path, vec![NodeId(3), NodeId(4)]);
    assert_eq!(p3.lcp_cost, Cost::ZERO);
    assert!(p3.payments.is_empty());

    // Batch output is bit-identical to the per-session oracle.
    for (q, got) in sessions.iter().zip(&priced) {
        assert_eq!(*got, fast_payments(&g, q.source, q.target));
    }

    // Audit replay: each relay-bearing session carries exactly one
    // "batch" record whose recorded inputs re-derive its payment.
    for (source, expected) in [(0u32, p0), (1, p1)] {
        let audits = snap.audits_for("batch", source, 4);
        assert_eq!(audits.len(), 1, "session {source}→4: one audited relay");
        let a = audits[0];
        assert_eq!(a.relay, 2);
        assert_eq!(a.lcp_cost_micros, units(2).micros());
        assert_eq!(a.replacement_cost_micros, obs::INF_MICROS);
        assert_eq!(a.declared_cost_micros, units(2).micros());
        assert_eq!(a.payment_micros, obs::INF_MICROS);
        assert_eq!(a.payment_micros, expected.payments[0].1.micros());
        assert!(a.is_consistent(), "{a:?}");
    }
    assert!(
        snap.audits_for("batch", 3, 4).is_empty(),
        "the zero-relay session has nothing to audit"
    );

    // The engine accounted its work: 3 sessions, a span, a cache warmed
    // once and hit twice.
    assert_eq!(snap.counter("core.batch.sessions"), 3);
    assert_eq!(snap.counter("core.batch.target_cache_misses"), 1);
    assert_eq!(snap.counter("core.batch.target_cache_hits"), 2);
    assert!(snap.histogram("span.core.batch.price_batch_ns").is_some());
}

/// The bridge-monopoly topology priced by the all-sources engine in one
/// shared-sweep pass toward access point 4, with tracing on: every
/// source's golden pricing at once, audit records under the
/// `all_sources` tag, and the fallback counters pinned to the hand
/// derivation.
///
/// Hand derivation of the AP-rooted inclusive table (costs
/// `[0, 1, 2, 1, 0]`, edges as in [`golden_bridge_monopoly`]):
/// `R′(3) = 1`, `R′(2) = 2`, `R′(0) = 2` (via 2), `R′(1) = 3` — reached
/// at equal cost via 2 *and* via 0, so node 1 is the topology's one
/// ambiguous node and its session is the one fallback re-price; every
/// other source takes the pure shared-sweep path. Both monopoly sources
/// still route through the cut vertex 2 at payment `INF`.
#[test]
fn golden_bridge_monopoly_all_sources_sweep() {
    let g = NodeWeightedGraph::from_pairs_units(
        &[(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)],
        &[0, 1, 2, 1, 0],
    );
    let ap = NodeId(4);

    obs::enable();
    let mut engine = AllSourcesEngine::with_threads(2);
    let table = engine.price_all_sources(&g, ap);
    let snap = obs::snapshot();
    obs::disable();

    // Source 0: monopoly through the cut vertex 2 (shared-sweep path).
    let p0 = table[0].as_ref().expect("0→4 connected");
    assert_eq!(p0.path, vec![NodeId(0), NodeId(2), NodeId(4)]);
    assert_eq!(p0.lcp_cost, units(2));
    assert_eq!(p0.payments, vec![(NodeId(2), Cost::INF)]);

    // Source 1: the ambiguous node — re-priced by the fallback pipeline,
    // landing on the same tie-break as the per-source algorithm.
    let p1 = table[1].as_ref().expect("1→4 connected");
    assert_eq!(p1.path, vec![NodeId(1), NodeId(2), NodeId(4)]);
    assert_eq!(p1.lcp_cost, units(2));
    assert_eq!(p1.payments, vec![(NodeId(2), Cost::INF)]);

    // Sources 2 and 3: direct links, zero relays.
    for s in [2usize, 3] {
        let p = table[s].as_ref().expect("direct neighbor");
        assert_eq!(p.path, vec![NodeId(s as u32), ap]);
        assert_eq!(p.lcp_cost, Cost::ZERO);
        assert!(p.payments.is_empty());
    }

    // The AP's own slot stays empty.
    assert!(table[4].is_none());

    // The whole table is bit-identical to the per-source oracle.
    for s in g.node_ids() {
        let expected = (s != ap).then(|| fast_payments(&g, s, ap)).flatten();
        assert_eq!(table[s.index()], expected, "source {s}");
    }

    // Audit replay: both relay-bearing sessions carry exactly one
    // `all_sources` record re-deriving the monopoly payment.
    for source in [0u32, 1] {
        let audits = snap.audits_for("all_sources", source, 4);
        assert_eq!(audits.len(), 1, "source {source}: one audited relay");
        let a = audits[0];
        assert_eq!(a.relay, 2);
        assert_eq!(a.lcp_cost_micros, units(2).micros());
        assert_eq!(a.replacement_cost_micros, obs::INF_MICROS);
        assert_eq!(a.declared_cost_micros, units(2).micros());
        assert_eq!(a.payment_micros, obs::INF_MICROS);
        assert!(a.is_consistent(), "{a:?}");
    }
    for source in [2u32, 3] {
        assert!(
            snap.audits_for("all_sources", source, 4).is_empty(),
            "zero-relay source {source} has nothing to audit"
        );
    }

    // The sweep accounted its work: one pass over 4 sources with exactly
    // the one hand-derived ambiguous node falling back.
    assert_eq!(snap.counter("core.all_sources.passes"), 1);
    assert_eq!(snap.counter("core.all_sources.sources"), 4);
    assert_eq!(snap.counter("core.all_sources.ambiguous_nodes"), 1);
    assert_eq!(snap.counter("core.all_sources.fallbacks"), 1);
    assert_eq!(engine.last_fallbacks(), 1);
    assert!(snap.histogram("span.core.all_sources_ns").is_some());
}

/// A hand-checkable 3-epoch mobility trace through the warm
/// [`IncrementalEngine`], with every delta counter pinned.
///
/// ```text
///        0 (AP) --- 1 --- 3 --- 4        costs: [0, 2, 7, 1, 4, 3]
///        |                \     |
///        2 ----------------5----+        epoch 1 edges: (0,1) (0,2)
///                                        (1,3) (3,4) (3,5) (2,4)
/// ```
///
/// * **Epoch 1** (cold): the AP-rooted tree hangs 3 under 1, and 4, 5
///   under 3; `R′ = [0, 2, 7, 3, 7, 6]`, no ties anywhere.
/// * **Epoch 2**: node 5's cost rises 3 → 8. One dirty slice `{5}`
///   (damage 1 ≤ 0.25·6), so the engine repairs. Relays 1 and 3 re-run
///   their detour rows, but every `F` value is unchanged (no detour in
///   either row routes through node 5), so the row diffs select nobody
///   — only source 5 itself (its distance moved) re-prices, and its
///   pricing is *unchanged* (a node's declared cost never enters its
///   own LCP cost): the repair must reproduce it bit-for-bit.
/// * **Epoch 3**: link (0,1) breaks and (1,2) appears — the severed arc
///   is a tree arc, so the whole subtree `{1, 3, 4, 5}` is dirty
///   (damage 4 > 0.25·6) and the engine falls back to a cold sweep.
///   Source 5 reroutes 5-3-1-2-0: `p_3 = INF` (cut vertex),
///   `p_1 = 12 − 10 + 2 = 4` (detour 5-3-4-2-0), `p_2 = INF`.
#[test]
fn golden_incremental_three_epoch_trace() {
    let costs_a = [0u64, 2, 7, 1, 4, 3];
    let costs_b = [0u64, 2, 7, 1, 4, 8];
    let edges_a: [(u32, u32); 6] = [(0, 1), (0, 2), (1, 3), (3, 4), (3, 5), (2, 4)];
    let edges_b: [(u32, u32); 6] = [(1, 2), (0, 2), (1, 3), (3, 4), (3, 5), (2, 4)];
    let e1 = NodeWeightedGraph::from_pairs_units(&edges_a, &costs_a);
    let e2 = NodeWeightedGraph::from_pairs_units(&edges_a, &costs_b);
    let e3 = NodeWeightedGraph::from_pairs_units(&edges_b, &costs_b);
    let ap = NodeId(0);

    let mut engine = IncrementalEngine::with_threads(2);
    let t1 = engine.price_epoch(&e1, ap, None);
    assert_eq!(engine.last_outcome(), EpochOutcome::Cold);
    let t2 = engine.price_epoch(&e2, ap, EpochStep::between(&e1, &e2, None).as_ref());
    assert_eq!(
        engine.last_outcome(),
        EpochOutcome::Repaired {
            dirty_nodes: 1,
            repaired_slices: 1,
            repriced_sources: 1,
        }
    );
    let t3 = engine.price_epoch(&e3, ap, EpochStep::between(&e2, &e3, None).as_ref());
    assert_eq!(
        engine.last_outcome(),
        EpochOutcome::Fallback { dirty_nodes: 4 }
    );
    // No LCP ties anywhere in the trace: the per-session ambiguity
    // fallback stays quiet in all three epochs.
    assert_eq!(engine.last_fallback_sources(), 0);

    // Epoch 1, source 4: route 4-3-1-0, detour for either relay is
    // 4-2-0 at relay cost 7, so p_3 = 7 − 3 + 1 = 5, p_1 = 7 − 3 + 2 = 6.
    let p4 = t1[4].as_ref().expect("4→0 connected");
    assert_eq!(p4.path, vec![NodeId(4), NodeId(3), NodeId(1), NodeId(0)]);
    assert_eq!(p4.lcp_cost, units(3));
    assert_eq!(
        p4.payments,
        vec![(NodeId(3), units(5)), (NodeId(1), units(6))]
    );

    // Epochs 1 and 2, source 5: bit-identical pricing (its own declared
    // cost is excluded from its LCP), with node 3 a monopoly and
    // p_1 = 12 − 3 + 2 = 11 over the detour 5-3-4-2-0.
    let p5 = t1[5].as_ref().expect("5→0 connected");
    assert_eq!(p5.path, vec![NodeId(5), NodeId(3), NodeId(1), NodeId(0)]);
    assert_eq!(p5.lcp_cost, units(3));
    assert_eq!(
        p5.payments,
        vec![(NodeId(3), Cost::INF), (NodeId(1), units(11))]
    );
    assert_eq!(t2[5], t1[5], "repair must reproduce source 5 exactly");

    // Epoch 3, source 5: rerouted through the new (1,2) link.
    let p5 = t3[5].as_ref().expect("5→0 still connected");
    assert_eq!(
        p5.path,
        vec![NodeId(5), NodeId(3), NodeId(1), NodeId(2), NodeId(0)]
    );
    assert_eq!(p5.lcp_cost, units(10));
    assert_eq!(
        p5.payments,
        vec![
            (NodeId(3), Cost::INF),
            (NodeId(1), units(4)),
            (NodeId(2), Cost::INF),
        ]
    );

    // Every epoch's full table is bit-identical to the cold engine.
    for (epoch, (g, table)) in [(&e1, &t1), (&e2, &t2), (&e3, &t3)].into_iter().enumerate() {
        let cold = AllSourcesEngine::with_threads(2).price_all_sources(g, ap);
        assert_eq!(**table, cold, "epoch {}", epoch + 1);
    }
}
