//! Hand-built certificate cases for the incremental engine's detour-row
//! repair: each epoch must match [`all_sources_payments`] bit for bit
//! *and* recompute exactly the row members whose certificate broke
//! (`core.delta.row_members_recomputed`), taking any better escape from
//! a per-row seed (`core.delta.row_seeds`) instead.
//!
//! Every case edits one base graph with AP 0. Costs: 1 for nodes 1, 2,
//! 3 and 9; 10 for 4, 5 and 6; 100 for 7; 5 for 8 and 10. Tree arcs:
//! 0-1, 1-2, 2-3, 3-9, 2-5, 3-6 and 0-{4, 7, 8, 10}; cross arcs: 4-5,
//! 4-6, 5-6, 6-8, 6-10, 3-7 and 9-7.
//!
//! Distances (inclusive of the node's own cost): 1, 2, 3 for 1–3, 4 for
//! 9, 10 for 4, 12 for 5, 13 for 6, 100 for 7 and 5 for 8 and 10; every
//! shortest path is unique, so no source takes the per-session fallback.
//! The relays with rows are 1 (members 2, 3, 5, 6, 9), 2 (3, 5, 6, 9)
//! and 3 (6, 9). Their certificates:
//!
//! - 6 escapes to 8 at 5 in every row (10 ties with it at 5, 4 is worse);
//! - 5 escapes to 4 at 10 in rows 1 and 2;
//! - 3 is supported by 6 (15) in rows 1 and 2, and 2 and 9 by 3 (16) in
//!   row 1, 9 by 3 in row 2;
//! - 9 escapes to 7 at 100 in row 3.
//!
//! The obs collector is process-global, so the cases take a lock and
//! read the counters of their own epoch only.

use std::sync::Mutex;

use truthcast_core::all_sources_payments;
use truthcast_core::delta::{EpochOutcome, EpochStep, IncrementalEngine};
use truthcast_core::pricing::UnicastPricing;
use truthcast_graph::{NodeId, NodeWeightedGraph};

static OBS: Mutex<()> = Mutex::new(());

const AP: NodeId = NodeId(0);

const BASE_ARCS: [(u32, u32); 17] = [
    (0, 1),
    (1, 2),
    (2, 3),
    (0, 4),
    (4, 5),
    (5, 6),
    (2, 5),
    (3, 6),
    (0, 7),
    (3, 7),
    (0, 8),
    (6, 8),
    (4, 6),
    (3, 9),
    (9, 7),
    (0, 10),
    (6, 10),
];

const BASE_COSTS: [u64; 11] = [0, 1, 1, 1, 10, 10, 10, 100, 5, 1, 5];

fn graph(arcs: &[(u32, u32)], costs: &[u64]) -> NodeWeightedGraph {
    NodeWeightedGraph::from_pairs_units(arcs, costs)
}

fn base() -> NodeWeightedGraph {
    graph(&BASE_ARCS, &BASE_COSTS)
}

fn without(arc: (u32, u32)) -> NodeWeightedGraph {
    let arcs: Vec<(u32, u32)> = BASE_ARCS.iter().copied().filter(|&a| a != arc).collect();
    graph(&arcs, &BASE_COSTS)
}

fn with_cost(v: usize, c: u64) -> NodeWeightedGraph {
    let mut costs = BASE_COSTS;
    costs[v] = c;
    graph(&BASE_ARCS, &costs)
}

/// What one repaired epoch did to the detour rows.
struct Epoch {
    before: Vec<Option<UnicastPricing>>,
    after: Vec<Option<UnicastPricing>>,
    repaired_rows: u64,
    recomputed: u64,
    seeds: u64,
}

/// Prices the base graph cold, then `next` warm, checking both against
/// the cold oracle and that `next` took the repair path.
fn repair_epoch(next: &NodeWeightedGraph) -> Epoch {
    repair_between(&base(), next)
}

/// [`repair_epoch`] from any previous graph `g0`.
fn repair_between(g0: &NodeWeightedGraph, next: &NodeWeightedGraph) -> Epoch {
    let _lock = OBS.lock().unwrap_or_else(|e| e.into_inner());
    let mut engine = IncrementalEngine::with_threads(1).with_damage_threshold(1.0);
    let before = engine.price_epoch(g0, AP, None).to_vec();
    assert_eq!(before, all_sources_payments(g0, AP));
    truthcast_obs::enable();
    truthcast_obs::reset();
    let step = EpochStep::between(g0, next, None);
    let after = engine.price_epoch(next, AP, step.as_ref()).to_vec();
    let snap = truthcast_obs::snapshot();
    truthcast_obs::disable();
    assert!(
        matches!(engine.last_outcome(), EpochOutcome::Repaired { .. }),
        "{:?}",
        engine.last_outcome()
    );
    assert_eq!(after, all_sources_payments(next, AP));
    Epoch {
        before,
        after,
        repaired_rows: snap.counter("core.delta.row_repairs"),
        recomputed: snap.counter("core.delta.row_members_recomputed"),
        seeds: snap.counter("core.delta.row_seeds"),
    }
}

/// Relay `r`'s payment on source `v`'s session, in whole units.
fn payment(table: &[Option<UnicastPricing>], v: u32, r: u32) -> f64 {
    let p = table[v as usize].as_ref().expect("source is reachable");
    let (_, c) = p
        .payments
        .iter()
        .find(|&&(relay, _)| relay == NodeId(r))
        .expect("relay is on the path");
    c.as_f64()
}

#[test]
fn removing_an_unused_non_tree_arc_recomputes_nothing() {
    // 3-7 is never a best escape (7 sits at 100), so no certificate
    // steps over it; its endpoints put rows 1, 2 and 3 in the re-run set.
    let e = repair_epoch(&without((3, 7)));
    assert_eq!(e.repaired_rows, 3);
    assert_eq!(e.recomputed, 0);
    assert_eq!(e.after, e.before);
}

#[test]
fn a_risen_escape_target_invalidates_only_its_dependants() {
    // 4 rises to 11: only 5 escaped to it (rows 1 and 2); its neighbour
    // 6, which escapes to 8, keeps its value.
    let e = repair_epoch(&with_cost(4, 11));
    assert_eq!(e.repaired_rows, 3);
    assert_eq!(e.recomputed, 2);
    assert_eq!(payment(&e.after, 5, 1), payment(&e.before, 5, 1) + 1.0);
}

#[test]
fn an_escape_target_moving_into_the_subtree_invalidates_only_its_dependants() {
    // Without 0-8, 8 hangs below 6: 6's escape becomes internal, so 6
    // and everything it supports (3, 2, 9 in row 1; 3, 9 in row 2) is
    // recomputed, as is 8 in the four rows that now hold it (6's row is
    // new). 5 (escape to 4) and 9 in row 3 (escape to 7) keep theirs.
    let e = repair_epoch(&without((0, 8)));
    assert_eq!(e.repaired_rows, 4);
    assert_eq!(e.recomputed, 5 + 4 + 2 + 1);
}

#[test]
fn a_drop_at_a_non_target_neighbour_arrives_as_a_seed() {
    // 4 drops to 4, below 6's certified escape to 8 at 5. 5's own target
    // moved (recomputed in rows 1 and 2); 6 keeps its certificate and
    // must learn the better escape from a seed, in all three rows.
    let e = repair_epoch(&with_cost(4, 4));
    assert_eq!(e.repaired_rows, 3);
    assert_eq!(e.recomputed, 2);
    assert!(e.seeds > 0);
    assert_eq!(payment(&e.after, 6, 3), payment(&e.before, 6, 3) - 1.0);
}

#[test]
fn an_added_internal_arc_lowers_a_member() {
    // 6-9 is internal to rows 1, 2 and 3 and changes no distance: both
    // endpoints are re-queued in each (two push seeds per row), and 9
    // drops to F(6) + c_6 = 15 (16 in rows 1 and 2, 100 in row 3).
    let mut arcs = BASE_ARCS.to_vec();
    arcs.push((6, 9));
    let e = repair_epoch(&graph(&arcs, &BASE_COSTS));
    assert_eq!(e.repaired_rows, 3);
    assert_eq!(e.recomputed, 0);
    assert_eq!(e.seeds, 6);
    assert_eq!(payment(&e.after, 9, 1), payment(&e.before, 9, 1) - 1.0);
    assert_eq!(payment(&e.after, 9, 3), payment(&e.before, 9, 3) - 85.0);
}

#[test]
fn an_equal_cost_escape_survives_its_tied_target() {
    // 6's certified escape 8 rises to 7, but 10 ties it at 5: 6 and its
    // dependants (3, 2, 9 in row 1; 3, 9 in row 2; row 3 has no
    // dependants) are recomputed to the same values, so every source
    // but 8 keeps its pricing.
    let e = repair_epoch(&with_cost(8, 7));
    assert_eq!(e.repaired_rows, 3);
    assert_eq!(e.recomputed, 4 + 3 + 1);
    for v in 1..11 {
        if v != 8 {
            assert_eq!(e.after[v], e.before[v], "source {v}");
        }
    }
}

#[test]
fn a_node_leaving_the_subtree_offers_a_better_escape() {
    // Relay 1[10] carries 2[1], which carries 3[10]; 2's only way around
    // 1 is 5[1000]. Relay 1 re-declares 20 and 3 gains an arc to 4[15]:
    // 3 leaves subtree(1) with its distance *up* from 21 to 25. 2 keeps
    // its certificate (escape to 5 at 1000) and can only learn its new
    // escape to 3, at 25, from the seed 3 leaves behind in row 1.
    let arcs = [(0, 1), (1, 2), (2, 3), (0, 4), (0, 5), (2, 5)];
    let g0 = graph(&arcs, &[0, 10, 1, 10, 15, 1000]);
    let mut next_arcs = arcs.to_vec();
    next_arcs.push((3, 4));
    let e = repair_between(&g0, &graph(&next_arcs, &[0, 20, 1, 10, 15, 1000]));
    // Row 1 (members 2) and 4's new row (member 3).
    assert_eq!(e.repaired_rows, 2);
    assert_eq!(e.recomputed, 1);
    assert_eq!(payment(&e.before, 2, 1), 1000.0 - 10.0 + 10.0);
    assert_eq!(payment(&e.after, 2, 1), 25.0 - 20.0 + 20.0);
}
