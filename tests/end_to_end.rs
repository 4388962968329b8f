//! Cross-crate integration: wireless deployment → pricing → distributed
//! protocol → settlement, all agreeing with each other.

use truthcast_rt::SmallRng;
use truthcast_rt::{RngCore, SeedableRng};

use truthcast::core::{fast_payments, naive_payments};
use truthcast::distsim::convergence_report;
use truthcast::graph::connectivity::is_connected;
use truthcast::graph::{Cost, NodeId};
use truthcast::protocol::{run_honest_session, Bank, Pki};
use truthcast::wireless::{all_to_ap_sessions, Deployment, EnergyLedger};

/// Deployments [`connected_instance`] draws before giving up. Small
/// deployments of the paper's fixed region are rarely connected, so an
/// unbounded rejection loop can spin for minutes on a too-small `n`.
const MAX_DRAWS: usize = 4096;

/// A connected paper-sim1 deployment with random scalar relay costs.
///
/// # Panics
/// If none of the first [`MAX_DRAWS`] draws is connected.
fn connected_instance(n: usize, seed: u64) -> truthcast::graph::NodeWeightedGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..MAX_DRAWS {
        let d = Deployment::paper_sim1(n, 2.0, &mut rng);
        let costs = d.random_node_costs(1.0, 10.0, &mut rng);
        let g = d.to_node_weighted(costs);
        if is_connected(g.adjacency()) {
            return g;
        }
    }
    panic!("no connected paper-sim1 deployment in {MAX_DRAWS} draws (n={n}, seed={seed})");
}

#[test]
fn fast_and_naive_agree_on_wireless_deployments() {
    for seed in 0..5 {
        let g = connected_instance(80, seed);
        for source in g.node_ids().skip(1) {
            assert_eq!(
                fast_payments(&g, source, NodeId(0)),
                naive_payments(&g, source, NodeId(0)),
                "seed {seed} source {source}"
            );
        }
    }
}

#[test]
fn distributed_protocol_agrees_with_centralized_on_deployments() {
    for seed in 10..13 {
        let g = connected_instance(70, seed);
        let report = convergence_report(&g, NodeId(0));
        assert_eq!(
            report.agreeing_sources, report.compared_sources,
            "seed {seed}: {report:?}"
        );
        assert!(report.spt_rounds <= g.num_nodes() + 1);
        assert!(report.payment_rounds <= g.num_nodes() + 1);
    }
}

/// A denser, biconnected deployment: every relay has a competitor, so
/// sessions never hit monopoly pricing.
fn biconnected_dense_instance(n: usize, seed: u64) -> truthcast::graph::NodeWeightedGraph {
    use truthcast::graph::generators::random_udg;
    use truthcast::graph::geometry::Region;
    let mut rng = SmallRng::seed_from_u64(seed);
    loop {
        let (_, adj) = random_udg(n, Region::new(900.0, 900.0), 300.0, &mut rng);
        if !truthcast::graph::connectivity::is_biconnected(&adj) {
            continue;
        }
        let costs = (0..n)
            .map(|_| Cost::from_f64(1.0 + (rng.next_u32() % 900) as f64 / 100.0))
            .collect();
        return truthcast::graph::NodeWeightedGraph::new(adj, costs);
    }
}

#[test]
fn full_settlement_day_conserves_money_and_covers_relays() {
    let g = biconnected_dense_instance(50, 77);
    let n = g.num_nodes();
    let pki = Pki::provision(n, 5);
    let mut bank = Bank::open(n);
    let mut energy = EnergyLedger::uniform(n, Cost::from_units(100_000));

    let mut settled = 0usize;
    for (id, session) in all_to_ap_sessions(n, 3).iter().enumerate() {
        if run_honest_session(
            &g,
            NodeId(0),
            session,
            id as u64,
            &pki,
            &mut bank,
            &mut energy,
        )
        .is_ok()
        {
            settled += 1;
        }
    }
    assert_eq!(
        settled,
        n - 1,
        "all sessions settle on a biconnected network"
    );
    assert!(bank.is_conserved());

    // Relay credits always cover the energy each relay burned (IR realized
    // as money): per-relay credit ≥ cost × packets relayed.
    for v in g.node_ids().skip(1) {
        let relayed = energy.relayed_packets(v);
        if relayed == 0 {
            continue;
        }
        let credit: i128 = bank
            .log()
            .iter()
            .filter(|t| t.to == v)
            .map(|t| t.amount as i128)
            .sum();
        let burned = (g.cost(v).micros() * relayed) as i128;
        assert!(
            credit >= burned,
            "relay {v}: credit {credit} < burned {burned}"
        );
    }
}

#[test]
fn directed_and_node_models_agree_on_symmetric_instances() {
    // When every link's cost equals the head's node cost, the directed
    // link-cost model reproduces the node-weighted LCP cost.
    let g = connected_instance(80, 123);
    let arcs: Vec<(NodeId, NodeId, Cost)> = g
        .adjacency()
        .edges()
        .flat_map(|(u, v)| [(u, v, g.cost(v)), (v, u, g.cost(u))])
        .collect();
    let dg = truthcast::graph::LinkWeightedDigraph::from_arcs(g.num_nodes(), arcs);
    for source in g.node_ids().skip(1) {
        let node_model = fast_payments(&g, source, NodeId(0)).unwrap();
        let link_model = truthcast::core::directed_payments(&dg, source, NodeId(0)).unwrap();
        // Path arcs price the *entered* node, except entering the AP costs
        // its node cost 0 → total arc cost equals the node-model LCP cost
        // plus the AP's (zero-cost) entry... i.e. exactly the relay cost
        // chain shifted by one: both models must see the same optimum.
        assert_eq!(
            link_model.lcp_cost,
            node_model.lcp_cost + g.cost(NodeId(0)),
            "source {source}"
        );
    }
}
