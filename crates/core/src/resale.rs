//! Section III-H "resale the path": collusion *after* payments are set.
//!
//! Even with truthful declarations, a source `v_i` and a neighbor `v_j` can
//! profit jointly whenever
//!
//! ```text
//! p_i  >  p_j + max(p_i^j, c_j)
//! ```
//!
//! — `v_j` originates `v_i`'s packets over its own (cheaper-to-pay) LCP,
//! `v_i` pays `v_j` its outlay `p_j` plus what `v_j` would have earned
//! honestly (`p_i^j` if `v_j` relays for `v_i`, else its cost `c_j`), and
//! they split the remaining savings. This module finds all such
//! opportunities and reconstructs the paper's Figure 4 instance, whose
//! quoted numbers (`p_8 = 20`, `p_4 = 6`, `p_8^4 = 0`, `c_4 = 5`,
//! post-collusion total `15.5`) are reproduced exactly.

use truthcast_graph::{Cost, NodeId, NodeWeightedGraph};

use crate::all_sources::all_sources_payments;
use crate::pricing::UnicastPricing;

/// A profitable resale collusion between a source and one of its neighbors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResaleOpportunity {
    /// `v_i`: the node that wants to reach the access point.
    pub initiator: NodeId,
    /// `v_j`: the neighbor that resells its own path.
    pub reseller: NodeId,
    /// `p_i`: what the initiator pays going directly.
    pub direct_payment: Cost,
    /// `p_j + max(p_i^j, c_j)`: the reseller's break-even charge.
    pub collusion_cost: Cost,
    /// `direct_payment − collusion_cost`: joint savings to split.
    pub savings: Cost,
}

impl ResaleOpportunity {
    /// The initiator's total outlay under an even split of the savings.
    pub fn initiator_outlay_even_split(&self) -> f64 {
        self.collusion_cost.as_f64() + self.savings.as_f64() / 2.0
    }
}

/// Prices every node's unicast to `ap` and scans all neighbor pairs for
/// resale opportunities. Nodes with unreachable or monopoly-priced paths
/// are skipped.
pub fn find_resale_opportunities(g: &NodeWeightedGraph, ap: NodeId) -> Vec<ResaleOpportunity> {
    let pricings: Vec<Option<UnicastPricing>> = all_sources_payments(g, ap);

    let mut out = Vec::new();
    for i in g.node_ids() {
        let Some(pi) = pricings[i.index()].as_ref() else {
            continue;
        };
        if pi.has_monopoly() {
            continue;
        }
        let p_i = pi.total_payment();
        for &j in g.neighbors(i) {
            if j == ap {
                continue;
            }
            let Some(pj) = pricings[j.index()].as_ref() else {
                continue;
            };
            if pj.has_monopoly() {
                continue;
            }
            // max(p_i^j, c_j) = p_i^j when j relays for i (then p_i^j ≥ c_j),
            // c_j otherwise (then p_i^j = 0 < c_j unless c_j = 0).
            let honest_share = pi.payment_to(j).max(g.cost(j));
            let collusion_cost = pj.total_payment().saturating_add(honest_share);
            if p_i > collusion_cost {
                out.push(ResaleOpportunity {
                    initiator: i,
                    reseller: j,
                    direct_payment: p_i,
                    collusion_cost,
                    savings: p_i.saturating_sub(collusion_cost),
                });
            }
        }
    }
    out
}

/// A faithful reconstruction of the paper's Figure 4 instance (the figure's
/// geometry is not machine-readable; this topology reproduces every quoted
/// quantity — see the tests).
///
/// Node roles: `0` = access point; `8` = initiator with a 5-hop cheap LCP
/// (`8–3–5–6–7–0`, relay cost 1 each); `4` = its neighbor with own LCP
/// `4–1–0` (relay cost 3, alternative `4–2–0` at 6); removing any of `8`'s
/// relays forces the `8–4–1–0` detour (cost `c_4 + 3 = 8`).
pub fn paper_figure4_instance() -> (NodeWeightedGraph, NodeId) {
    let g = NodeWeightedGraph::from_pairs_units(
        &[
            (4, 1),
            (1, 0), // 4's LCP branch
            (4, 2),
            (2, 0), // 4's alternative branch
            (8, 4), // the resale edge
            (8, 3),
            (3, 5),
            (5, 6),
            (6, 7),
            (7, 0), // 8's own LCP
        ],
        //  0  1  2  3  4  5  6  7  8
        // (node 8's own cost of 5 keeps the 4–8–…–0 detour dearer than
        // 4's alternative branch, so p_4 stays 6.)
        &[0, 3, 6, 1, 5, 1, 1, 1, 5],
    );
    (g, NodeId(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast::fast_payments;

    #[test]
    fn figure4_numbers_match_the_paper() {
        let (g, ap) = paper_figure4_instance();
        let p8 = fast_payments(&g, NodeId(8), ap).unwrap();
        assert_eq!(
            p8.path,
            vec![
                NodeId(8),
                NodeId(3),
                NodeId(5),
                NodeId(6),
                NodeId(7),
                NodeId(0)
            ]
        );
        assert_eq!(p8.lcp_cost, Cost::from_units(4));
        assert_eq!(p8.total_payment(), Cost::from_units(20), "p_8 = 20");
        assert_eq!(p8.payment_to(NodeId(4)), Cost::ZERO, "p_8^4 = 0");

        let p4 = fast_payments(&g, NodeId(4), ap).unwrap();
        assert_eq!(p4.total_payment(), Cost::from_units(6), "p_4 = 6");
        assert_eq!(g.cost(NodeId(4)), Cost::from_units(5), "c_4 = 5");
    }

    #[test]
    fn figure4_resale_opportunity_found_with_paper_arithmetic() {
        let (g, ap) = paper_figure4_instance();
        let opportunities = find_resale_opportunities(&g, ap);
        let op = opportunities
            .iter()
            .find(|o| o.initiator == NodeId(8) && o.reseller == NodeId(4))
            .expect("the Figure 4 collusion must be detected");
        assert_eq!(op.direct_payment, Cost::from_units(20));
        assert_eq!(op.collusion_cost, Cost::from_units(11)); // 6 + max(0, 5)
        assert_eq!(op.savings, Cost::from_units(9));
        // Even split: node 8 pays 11 + 4.5 = 15.5 < 20 (the paper's value).
        assert!((op.initiator_outlay_even_split() - 15.5).abs() < 1e-9);
    }

    #[test]
    fn no_opportunity_on_a_symmetric_diamond() {
        // Both relays see the same world; reselling cannot beat direct.
        let g = NodeWeightedGraph::from_pairs_units(
            &[(0, 1), (1, 3), (0, 2), (2, 3), (1, 2)],
            &[0, 5, 5, 0],
        );
        let ops = find_resale_opportunities(&g, NodeId(0));
        assert!(ops.is_empty(), "got {ops:?}");
    }

    #[test]
    fn monopoly_paths_are_skipped() {
        // A path graph: every relay is a monopoly; nothing should crash
        // nor be reported.
        let g = NodeWeightedGraph::from_pairs_units(&[(0, 1), (1, 2), (2, 3)], &[0, 1, 1, 0]);
        let ops = find_resale_opportunities(&g, NodeId(0));
        assert!(ops.is_empty());
    }

    #[test]
    fn savings_are_consistent() {
        let (g, ap) = paper_figure4_instance();
        for op in find_resale_opportunities(&g, ap) {
            assert_eq!(
                op.savings,
                op.direct_payment.saturating_sub(op.collusion_cost)
            );
            assert!(op.savings > Cost::ZERO);
        }
    }
}
