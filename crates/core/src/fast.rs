//! Algorithm 1: fast VCG payment computation for node-weighted unicast.
//!
//! Computes every relay's replacement-path cost `‖P_{-r_l}(v_i, v_j, d)‖`
//! in one pass instead of one Dijkstra per relay. The structure (paper
//! Lemmas 1–3, restated in our `L'`/`R'` convention — see
//! [`truthcast_graph::node_dijkstra`]):
//!
//! 1. Two sweeps give `L'(v)` (from `v_i`) and `R'(v)` (from `v_j`), and
//!    `SPT(v_i)` yields the LCP `r_0 … r_s` and node *levels*.
//! 2. A replacement path avoiding `r_l` crosses from the `level < l`
//!    region to the `level ≥ l` region exactly once:
//!    * across an edge `(a, b)` with `level(a) < l < level(b)` — candidate
//!      `L'(a) + R'(b)`, maintained in a sliding [`IndexedHeap`] as `l`
//!      walks the path (each edge inserted once, deleted once);
//!    * or *into* the level-`l` set at a node `k` — candidate
//!      `minₛ L'(s) + D_l(k)` where `D_l(k)` is the best `k → v_j` cost
//!      avoiding `r_l`, computed by a restricted Dijkstra run *inside* the
//!      level-`l` set, seeded from strictly-higher-level neighbors with
//!      `R'` values. Level sets partition the off-path nodes, so all the
//!      restricted runs together cost `O(Σ(n_l log n_l) + m)`.
//!
//! Overall `O((n + m) log n)` — the paper's `O(n log n + m)` up to the
//! binary-heap/Fibonacci distinction. Like the replacement-path literature
//! this derivation assumes shortest paths are essentially unique (ties are
//! broken consistently by the Dijkstra order); the differential tests
//! exercise tie-heavy profiles as well and the naive oracle remains the
//! ground truth.

use truthcast_graph::heap::IndexedHeap;
use truthcast_graph::node_dijkstra::{node_dijkstra, NodeDijkstraOptions};
use truthcast_graph::{Cost, NodeId, NodeWeightedGraph, Spt};
use truthcast_mechanism::vcg::vcg_payment_selected;

use crate::levels::{compute_levels, PathLevels, UNREACHED};
use crate::pricing::UnicastPricing;
use crate::trace::audit_unicast;

/// Prices a unicast with the per-relay-removal VCG scheme using
/// Algorithm 1. Semantically identical to
/// [`crate::naive::naive_payments`], asymptotically `Θ(s)` times faster on
/// an `s`-relay path.
///
/// ```
/// use truthcast_core::fast_payments;
/// use truthcast_graph::{Cost, NodeId, NodeWeightedGraph};
///
/// // 3 → 1 → 0 (relay cost 5) beats 3 → 2 → 0 (relay cost 7).
/// let g = NodeWeightedGraph::from_pairs_units(
///     &[(0, 1), (1, 3), (0, 2), (2, 3)],
///     &[0, 5, 7, 0],
/// );
/// let p = fast_payments(&g, NodeId(3), NodeId(0)).unwrap();
/// // Vickrey: the winning relay is paid the runner-up's price.
/// assert_eq!(p.payment_to(NodeId(1)), Cost::from_units(7));
/// ```
pub fn fast_payments(
    g: &NodeWeightedGraph,
    source: NodeId,
    target: NodeId,
) -> Option<UnicastPricing> {
    assert_ne!(source, target, "unicast endpoints must differ");
    let _span = truthcast_obs::span("core.fast_payments");
    let ti = node_dijkstra(g, source, NodeDijkstraOptions::default());
    let spt = Spt::from_parents(source, &ti.parent);
    let lv = compute_levels(&spt, target)?;
    let lcp_cost = ti.lcp_cost(g, target);
    let s = lv.hops();
    if s == 1 {
        return Some(UnicastPricing {
            path: lv.path,
            lcp_cost,
            payments: vec![],
        });
    }
    let tj = node_dijkstra(g, target, NodeDijkstraOptions::default());

    let replacements = replacement_costs(g, &ti.dist, &tj.dist, &lv);
    let payments: Vec<(NodeId, Cost)> = lv.path[1..s]
        .iter()
        .zip(&replacements)
        .map(|(&r, &repl)| (r, vcg_payment_selected(lcp_cost, repl, g.cost(r))))
        .collect();
    audit_unicast(
        "fast",
        source,
        target,
        lcp_cost,
        payments
            .iter()
            .zip(&replacements)
            .map(|(&(r, p), &repl)| (r, repl, g.cost(r), p)),
    );

    Some(UnicastPricing {
        path: lv.path,
        lcp_cost,
        payments,
    })
}

/// Computes `‖P_{-r_l}‖` for `l = 1 … s-1`, given the `L'`/`R'` tables and
/// the level structure. Exposed for the heap-strategy ablation benchmark.
pub fn replacement_costs(
    g: &NodeWeightedGraph,
    l_prime: &[Cost],
    r_prime: &[Cost],
    lv: &PathLevels,
) -> Vec<Cost> {
    let s = lv.hops();
    let n = g.num_nodes();
    // Replacement-path work counters, batched and flushed once at the end
    // (see the truthcast-obs cost model).
    let mut obs_members = 0u64;
    let mut obs_restricted_pops = 0u64;

    // ---- Level-set entry candidates c^{-l} (steps 3–4). -----------------
    // Group off-path nodes by level; levels are independent of each other
    // because every seed comes from the global R' table.
    let mut members_by_level: Vec<Vec<NodeId>> = vec![Vec::new(); s + 1];
    for v in g.node_ids() {
        let l = lv.level[v.index()];
        if l == UNREACHED || lv.on_path(v) {
            continue;
        }
        debug_assert!((l as usize) < s + 1);
        members_by_level[l as usize].push(v);
    }

    let mut c_min = vec![Cost::INF; s]; // c_min[l] valid for 1..s
    let mut d_val = vec![Cost::INF; n]; // D_l(k); reset lazily per level
    let mut heap: IndexedHeap<Cost> = IndexedHeap::new(n);
    for l in 1..s {
        let members = &members_by_level[l];
        if members.is_empty() {
            continue;
        }
        obs_members += members.len() as u64;
        let lu = l as u32;
        // Seed each member from its strictly-higher-level neighbors:
        // D(k) = c_k + min R'(a). (R' of the target itself is 0, so a
        // member adjacent to v_j seeds at exactly c_k.)
        heap.clear();
        for &k in members {
            let mut seed = Cost::INF;
            for &a in g.neighbors(k) {
                let la = lv.level[a.index()];
                if la != UNREACHED && la > lu {
                    seed = seed.min(r_prime[a.index()]);
                }
            }
            d_val[k.index()] = seed.saturating_add(g.cost(k));
            if d_val[k.index()].is_finite() {
                heap.push(k.0, d_val[k.index()]);
            }
        }
        // Restricted Dijkstra inside the level set.
        while let Some((kk, dk)) = heap.pop_min() {
            obs_restricted_pops += 1;
            let k = NodeId(kk);
            if dk > d_val[k.index()] {
                continue; // stale (cannot happen with IndexedHeap, but cheap)
            }
            for &m in g.neighbors(k) {
                if lv.level[m.index()] != lu || lv.on_path(m) {
                    continue;
                }
                let cand = dk + g.cost(m);
                if cand < d_val[m.index()] {
                    d_val[m.index()] = cand;
                    heap.push_or_update(m.0, cand);
                }
            }
        }
        // Entry candidates: L'(s) from any lower-level neighbor s.
        for &k in members {
            if d_val[k.index()].is_inf() {
                continue;
            }
            let mut entry = Cost::INF;
            for &a in g.neighbors(k) {
                let la = lv.level[a.index()];
                if la != UNREACHED && la < lu {
                    entry = entry.min(l_prime[a.index()]);
                }
            }
            c_min[l] = c_min[l].min(entry.saturating_add(d_val[k.index()]));
        }
        // Lazy reset of the touched D entries.
        for &k in members {
            d_val[k.index()] = Cost::INF;
        }
    }

    // ---- Sliding crossing-edge heap (step 5). ----------------------------
    // Edge (a, b) with level(a) + 1 < level(b) is a candidate L'(a) + R'(b)
    // for every avoided index l in (level(a), level(b)).
    struct CrossEdge {
        value: Cost,
        insert_at: u32, // level(a) + 1
        delete_at: u32, // level(b)
    }
    let mut cross: Vec<CrossEdge> = Vec::new();
    for (u, v) in g.adjacency().edges() {
        let (lu_, lv_) = (lv.level[u.index()], lv.level[v.index()]);
        if lu_ == UNREACHED || lv_ == UNREACHED || lu_ == lv_ {
            continue;
        }
        let (a, b, la, lb) = if lu_ < lv_ {
            (u, v, lu_, lv_)
        } else {
            (v, u, lv_, lu_)
        };
        if lb <= la + 1 {
            continue; // active interval empty
        }
        let value = l_prime[a.index()].saturating_add(r_prime[b.index()]);
        if value.is_inf() {
            continue;
        }
        cross.push(CrossEdge {
            value,
            insert_at: la + 1,
            delete_at: lb,
        });
    }
    // Bucket edge indices by insertion/deletion level.
    let mut insert_at: Vec<Vec<u32>> = vec![Vec::new(); s + 1];
    let mut delete_at: Vec<Vec<u32>> = vec![Vec::new(); s + 1];
    for (idx, e) in cross.iter().enumerate() {
        insert_at[e.insert_at as usize].push(idx as u32);
        delete_at[e.delete_at as usize].push(idx as u32);
    }

    let mut window: IndexedHeap<Cost> = IndexedHeap::new(cross.len());
    let mut out = Vec::with_capacity(s.saturating_sub(1));
    for l in 1..s {
        for &idx in &delete_at[l] {
            window.remove(idx);
        }
        for &idx in &insert_at[l] {
            window.push(idx, cross[idx as usize].value);
        }
        let best_cross = window.peek().map_or(Cost::INF, |(_, v)| v);
        out.push(best_cross.min(c_min[l]));
    }
    if truthcast_obs::enabled() {
        let c = truthcast_obs::collector();
        c.add("core.fast.replacement_passes", 1);
        c.add("core.fast.level_set_members", obs_members);
        c.add("core.fast.restricted_pops", obs_restricted_pops);
        c.add("core.fast.cross_edges", cross.len() as u64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_payments;

    fn check_matches_naive(pairs: &[(u32, u32)], costs: &[u64], s: u32, t: u32) {
        let g = NodeWeightedGraph::from_pairs_units(pairs, costs);
        let fast = fast_payments(&g, NodeId(s), NodeId(t));
        let naive = naive_payments(&g, NodeId(s), NodeId(t));
        assert_eq!(fast, naive, "pairs {pairs:?} costs {costs:?} {s}->{t}");
    }

    #[test]
    fn diamond_matches() {
        check_matches_naive(&[(0, 1), (1, 3), (0, 2), (2, 3)], &[0, 5, 7, 0], 0, 3);
    }

    #[test]
    fn two_branch_long_path_matches() {
        check_matches_naive(
            &[(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5)],
            &[0, 1, 1, 4, 4, 0],
            0,
            5,
        );
    }

    #[test]
    fn ladder_with_rungs_matches() {
        // Two parallel paths with crossing rungs: exercises the sliding
        // heap with staggered insert/delete levels.
        let pairs = [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 7), // top path
            (0, 4),
            (4, 5),
            (5, 6),
            (6, 7), // bottom path
            (1, 4),
            (2, 5),
            (3, 6), // rungs
        ];
        let costs = [0, 1, 1, 1, 9, 2, 9, 0];
        check_matches_naive(&pairs, &costs, 0, 7);
    }

    #[test]
    fn monopoly_matches() {
        // Removing node 1 disconnects: both algorithms must report INF.
        check_matches_naive(&[(0, 1), (1, 2), (2, 3), (1, 3)], &[0, 1, 5, 0], 0, 3);
    }

    #[test]
    fn adjacent_endpoints_trivial() {
        let g = NodeWeightedGraph::from_pairs_units(&[(0, 1), (1, 2)], &[0, 1, 0]);
        let p = fast_payments(&g, NodeId(0), NodeId(1)).unwrap();
        assert!(p.payments.is_empty());
    }

    #[test]
    fn disconnected_is_none() {
        let g = NodeWeightedGraph::from_pairs_units(&[(0, 1)], &[0, 0, 0]);
        assert_eq!(fast_payments(&g, NodeId(0), NodeId(2)), None);
    }

    #[test]
    fn entry_through_level_set_is_found() {
        // Replacement for r_2 must thread through a level-2 pendant chain:
        // path 0-1-2-3-4; node 5 hangs off 2 (level 2) and connects to 3.
        // Removing r_2=2: replacement 0-1-? ... 1-5? Build explicitly:
        let pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (5, 3)];
        let costs = [0, 1, 1, 1, 0, 10];
        check_matches_naive(&pairs, &costs, 0, 4);
    }

    #[test]
    fn random_graphs_match_naive() {
        use truthcast_rt::SmallRng;
        use truthcast_rt::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(42);
        for case in 0..400 {
            let n = rng.gen_range(4..24);
            let p = rng.gen_range(0.15..0.6);
            let mut pairs = Vec::new();
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if rng.gen_bool(p) {
                        pairs.push((u, v));
                    }
                }
            }
            // Mix of wide-range costs (unique-ish) per case parity.
            let costs: Vec<u64> = (0..n)
                .map(|_| {
                    if case % 2 == 0 {
                        rng.gen_range(0..1_000_000)
                    } else {
                        rng.gen_range(0..6) // tie-heavy
                    }
                })
                .collect();
            let g = NodeWeightedGraph::from_pairs_units(&pairs, &costs);
            let s = NodeId(0);
            let t = NodeId(n as u32 - 1);
            let fast = fast_payments(&g, s, t);
            let naive = naive_payments(&g, s, t);
            assert_eq!(fast, naive, "case {case}: pairs {pairs:?} costs {costs:?}");
        }
    }
}
