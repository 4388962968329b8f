//! Acceptance test for the `truthcast-obs` payment audit trail: replay
//! the golden diamond topology with tracing on and check that the
//! emitted audit records mechanically justify every relay payment via
//! the paper's formula `p^k = ‖P_{-v_k}(i,j,d)‖ − ‖P(i,j,d)‖ + d_k`
//! (§III-B).
//!
//! The obs collector is process-wide, so everything lives in ONE `#[test]`
//! function — parallel test threads sharing the global sink would race on
//! enable/reset.

use truthcast::core::{fast_payments, naive_payments, AllSourcesEngine};
use truthcast::graph::{Cost, LinkWeightedDigraph, NodeId, NodeWeightedGraph};
use truthcast::obs;

/// The golden diamond of `tests/golden_payments.rs`: two disjoint 2-hop
/// routes 0→3 through relay 1 (cost 5) or relay 2 (cost 7). LCP is
/// 0-1-3 at cost 5; evicting relay 1 forces the cost-7 route, so
/// `p_1 = 7 − 5 + 5 = 7`.
fn diamond() -> NodeWeightedGraph {
    NodeWeightedGraph::from_pairs_units(&[(0, 1), (0, 2), (1, 3), (2, 3)], &[0, 5, 7, 0])
}

/// A symmetric link-cost diamond: routes 0→3 through relay 1 (arcs
/// `w[0]`, `w[1]`) or relay 2 (arcs `w[2]`, `w[3]`).
fn link_diamond(w: [u64; 4]) -> LinkWeightedDigraph {
    let arcs = [(0, 1, w[0]), (1, 3, w[1]), (0, 2, w[2]), (2, 3, w[3])]
        .into_iter()
        .flat_map(|(u, v, c)| {
            let c = Cost::from_units(c);
            [(NodeId(u), NodeId(v), c), (NodeId(v), NodeId(u), c)]
        });
    LinkWeightedDigraph::from_arcs(4, arcs)
}

#[test]
fn traced_diamond_audits_reproduce_payments() {
    let g = diamond();
    obs::enable();
    obs::reset();

    let fast = fast_payments(&g, NodeId(0), NodeId(3)).expect("connected");
    let naive = naive_payments(&g, NodeId(0), NodeId(3)).expect("connected");
    let snap = obs::snapshot();
    obs::disable();

    assert_eq!(fast, naive);

    for algo in ["fast", "naive"] {
        let audits = snap.audits_for(algo, 0, 3);
        assert_eq!(
            audits.len(),
            fast.payments.len(),
            "{algo}: one audit record per paid relay"
        );
        for (audit, &(relay, paid)) in audits.iter().zip(&fast.payments) {
            // The record's inputs are the quantities from the paper.
            assert_eq!(audit.relay, relay.0, "{algo}: path order preserved");
            assert_eq!(audit.lcp_cost_micros, fast.lcp_cost.micros(), "{algo}");
            assert_eq!(
                audit.declared_cost_micros,
                g.cost(relay).micros(),
                "{algo}: declared cost is d_k"
            );
            // ‖P_-1‖ is the cost-7 detour through relay 2.
            assert_eq!(
                audit.replacement_cost_micros,
                Cost::from_units(7).micros(),
                "{algo}: replacement path is 0-2-3"
            );
            // The emitted payment is the algorithm's actual output, and
            // re-deriving ‖P_-vk‖ − ‖P‖ + d_k from the recorded inputs
            // reproduces it exactly.
            assert_eq!(audit.payment_micros, paid.micros(), "{algo}");
            assert_eq!(
                audit.expected_payment_micros(),
                paid.micros(),
                "{algo}: formula must reproduce the payment"
            );
            assert!(audit.is_consistent(), "{algo}: {audit:?}");
        }
    }

    // The concrete golden numbers, not just internal consistency:
    // p_1 = 7 − 5 + 5 = 7 in micro-units.
    let fast_audit = snap.audits_for("fast", 0, 3)[0];
    assert_eq!(fast_audit.relay, 1);
    assert_eq!(fast_audit.lcp_cost_micros, 5_000_000);
    assert_eq!(fast_audit.replacement_cost_micros, 7_000_000);
    assert_eq!(fast_audit.declared_cost_micros, 5_000_000);
    assert_eq!(fast_audit.payment_micros, 7_000_000);

    // The sweep instrumentation saw the Dijkstra work: at least the LCP
    // sweep plus per-relay replacement sweeps ran.
    assert!(
        snap.counter("graph.node_dijkstra.sweeps") >= 1,
        "instrumented Dijkstra must have flushed sweep counters"
    );
    assert!(
        snap.histogram("span.core.fast_payments_ns").is_some(),
        "fast_payments must record its timing span"
    );
    assert!(
        snap.histogram("span.core.naive_payments_ns").is_some(),
        "naive_payments must record its timing span"
    );

    // JSONL export round-trip: the trace file carries the audit line.
    let dir = std::env::temp_dir().join("truthcast_obs_audit_test");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("trace.jsonl");
    obs::write_jsonl(&path).expect("write trace");
    let trace = std::fs::read_to_string(&path).expect("read trace back");
    assert!(
        trace
            .lines()
            .any(|l| l.contains("\"type\":\"payment_audit\"") && l.contains("\"algo\":\"fast\"")),
        "JSONL trace must contain the fast-path audit record"
    );
    assert!(
        trace
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')),
        "every JSONL line is one object"
    );
    let _ = std::fs::remove_file(&path);

    // The symmetric link model through the all-to-AP engine: unique
    // costs take the in-tree assembly, equal-cost routes the per-session
    // fallback. Each relay's record declares the arc it forwards on.
    for (w, falls_back) in [([2, 3, 4, 5], false), ([1, 1, 1, 1], true)] {
        let g = link_diamond(w);
        obs::enable();
        obs::reset();
        let mut engine = AllSourcesEngine::with_threads(1);
        let table = engine.price_all_sources_symmetric(&g, NodeId(3));
        let snap = obs::snapshot();
        obs::disable();

        assert_eq!(engine.last_fallbacks() > 0, falls_back, "{w:?}");
        let priced = table[0].as_ref().expect("connected");
        let audits = snap.audits_for("all_sources_sym", 0, 3);
        assert!(!audits.is_empty(), "{w:?}: source 0 pays a relay");
        assert_eq!(audits.len(), priced.payments.len(), "{w:?}: one per relay");
        for (k, (audit, &(relay, paid))) in audits.iter().zip(&priced.payments).enumerate() {
            let used_arc = g.arc_cost(relay, priced.path[k + 2]);
            assert_eq!(audit.relay, relay.0, "{w:?}");
            assert_eq!(audit.declared_cost_micros, used_arc.micros(), "{w:?}");
            assert_eq!(audit.payment_micros, paid.micros(), "{w:?}");
            assert_eq!(audit.expected_payment_micros(), audit.payment_micros);
            assert!(audit.is_consistent(), "{w:?}: {audit:?}");
        }
    }
}
