//! Theorem 7 made executable: *no* mechanism that outputs the LCP is
//! 2-agents strategyproof.
//!
//! The proof's engine is concrete: in any truthful LCP mechanism, an
//! off-path agent that sets the price of an on-path agent can inflate its
//! declaration — the output and its own utility are unchanged (Lemma 4),
//! but its partner's VCG payment rises one-for-one. This module produces
//! such witnesses mechanically for the plain VCG scheme, and shows the
//! coalition structure the neighborhood scheme `p̃` closes off (and the one
//! it provably cannot: non-adjacent pairs).

use truthcast_graph::{adjacency_from_pairs, Adjacency, NodeId, NodeWeightedGraph};
use truthcast_mechanism::{find_collusion, CollusionWitness, Profile};

use crate::fast::fast_payments;
use crate::mechanism_impl::{Engine, VcgUnicast};

/// The canonical witness instance: the diamond `0–1–3 / 0–2–3` with relay
/// costs 5 and 7. Relay 1 is on the LCP; relay 2 prices it.
pub fn canonical_instance() -> (Adjacency, Profile) {
    (
        adjacency_from_pairs(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]),
        Profile::from_units(&[0, 5, 7, 0]),
    )
}

/// Searches the given unicast instance for a 2-agent collusion against the
/// plain VCG scheme, pairing each on-path relay with each off-path node
/// (the structure Theorem 7 predicts). Critical values are fed to the
/// search as probe points.
pub fn theorem7_witness(
    topology: &Adjacency,
    truth: &Profile,
    source: NodeId,
    target: NodeId,
) -> Option<CollusionWitness> {
    let g = NodeWeightedGraph::new(topology.clone(), truth.as_slice().to_vec());
    let pricing = fast_payments(&g, source, target)?;
    if pricing.has_monopoly() {
        return None;
    }
    let mech = VcgUnicast::new(topology.clone(), source, target, Engine::Fast);
    let on_path: Vec<NodeId> = pricing.relays().to_vec();
    let off_path: Vec<NodeId> = topology
        .node_ids()
        .filter(|&v| v != source && v != target && !pricing.path.contains(&v))
        .collect();
    // Probe declarations at every relay's payment (its critical value).
    let probes: Vec<_> = pricing.payments.iter().map(|&(_, p)| p).collect();
    for &a in &on_path {
        for &b in &off_path {
            if let Some(w) = find_collusion(&mech, truth, &[a, b], |_| probes.clone()) {
                return Some(w);
            }
        }
    }
    None
}

/// Theorem 7 through the Lemma 6 lens: a [`truthcast_mechanism::CrossDependence`] witness —
/// some node's declaration moving another's payment with allocations
/// fixed — certifies directly that no LCP mechanism with these payments
/// can be 2-agents strategyproof. For the VCG scheme such witnesses are
/// generic (every off-path price-setter is one).
pub fn theorem7_cross_dependence(
    topology: &Adjacency,
    truth: &Profile,
    source: NodeId,
    target: NodeId,
) -> Option<truthcast_mechanism::CrossDependence> {
    let mech = VcgUnicast::new(topology.clone(), source, target, Engine::Fast);
    truthcast_mechanism::find_cross_dependence(&mech, truth, |_| vec![])
}

#[cfg(test)]
mod tests {
    use super::*;
    use truthcast_graph::Cost;

    #[test]
    fn canonical_diamond_yields_a_witness() {
        let (topo, truth) = canonical_instance();
        let w = theorem7_witness(&topo, &truth, NodeId(0), NodeId(3))
            .expect("Theorem 7 witness must exist on the diamond");
        assert_eq!(w.coalition, vec![NodeId(1), NodeId(2)]);
        assert!(w.gain() > 0);
        // The off-path partner inflated above its true cost of 7.
        assert!(w.declarations[1] > Cost::from_units(7));
    }

    #[test]
    fn witness_gain_matches_payment_inflation() {
        // On the diamond: if node 2 declares 7 + δ, node 1's payment grows
        // by δ while outputs stay fixed, so the coalition gains exactly δ.
        use truthcast_mechanism::ScalarMechanism as _;
        let (topo, truth) = canonical_instance();
        let mech = VcgUnicast::new(topo, NodeId(0), NodeId(3), Engine::Naive);
        let base = mech.run(&truth);
        let delta = Cost::from_units(13);
        let lied = truth.replace(NodeId(2), Cost::from_units(7) + delta);
        let shifted = mech.run(&lied);
        assert_eq!(shifted.payment(NodeId(1)), base.payment(NodeId(1)) + delta);
        assert_eq!(shifted.payment(NodeId(2)), base.payment(NodeId(2)));
    }

    #[test]
    fn three_branch_instances_also_exploitable() {
        // More branches don't save VCG: the *price-setting* branch inflates.
        let topo = adjacency_from_pairs(5, &[(0, 1), (1, 4), (0, 2), (2, 4), (0, 3), (3, 4)]);
        let truth = Profile::from_units(&[0, 2, 5, 9, 0]);
        let w = theorem7_witness(&topo, &truth, NodeId(0), NodeId(4)).expect("witness must exist");
        // The colluding off-path node is the second-cheapest branch (2),
        // since branch 3 does not set the price.
        assert!(w.coalition.contains(&NodeId(2)));
        assert!(w.gain() > 0);
    }

    #[test]
    fn lemma4_holds_but_lemma6_fails_for_vcg() {
        // Lemma 4 (own-declaration independence) holds for the truthful
        // VCG scheme, while the Lemma 6 cross-dependence exists — exactly
        // the combination Theorem 7 exploits.
        let (topo, truth) = canonical_instance();
        let mech = VcgUnicast::new(topo.clone(), NodeId(0), NodeId(3), Engine::Fast);
        assert_eq!(
            truthcast_mechanism::check_own_independence(&mech, &truth),
            Ok(())
        );
        let w = theorem7_cross_dependence(&topo, &truth, NodeId(0), NodeId(3))
            .expect("cross dependence must exist");
        assert_eq!(w.payee, NodeId(1), "the on-path relay's payment moves");
        assert_eq!(w.mover, NodeId(2), "when the price-setter re-declares");
    }

    #[test]
    fn monopoly_instances_yield_none() {
        let topo = adjacency_from_pairs(3, &[(0, 1), (1, 2)]);
        let truth = Profile::from_units(&[0, 4, 0]);
        assert!(theorem7_witness(&topo, &truth, NodeId(0), NodeId(2)).is_none());
    }
}
