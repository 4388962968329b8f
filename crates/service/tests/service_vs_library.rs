//! Differential battery: the service's anycast settlement must be
//! **bit-identical** to the argmin of k independent library runs.
//!
//! The oracle is deliberately dumb: for every AP run
//! [`all_sources_payments`] (the single-AP, single-epoch library
//! entry), then pick each source's cheapest AP by declared LCP cost,
//! breaking exact ties toward the lowest AP index. The service computes
//! the same thing through shards, snapshots, and the batched parallel
//! front-end — so every settlement's winning AP, generation, path, LCP
//! cost, and per-relay payments must match the oracle bit for bit at
//! every thread count, under both queue kinds, across epochs, and on
//! instances engineered so two APs quote *exactly* equal costs.
//!
//! Shed decisions are part of the contract too: with a bounded queue
//! the outcome vector (who settled, who shed, in batch order) must be
//! identical at every thread count.
//!
//! Case count scales with `TRUTHCAST_CASES` (the CI heavy battery sets
//! it); a failure prints the `TRUTHCAST_SEED` that reproduces it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use truthcast_core::all_sources_payments;
use truthcast_core::UnicastPricing;
use truthcast_graph::generators::{erdos_renyi, pairs_within_range, random_placement};
use truthcast_graph::geometry::Region;
use truthcast_graph::{adjacency_from_pairs, Cost, NodeId, NodeMap, NodeWeightedGraph, QueueKind};
use truthcast_rt::{bools, cases, forall, prop_assert, prop_assert_eq, Rng, SeedableRng, SmallRng};
use truthcast_service::{PaymentService, ServeOutcome, ServiceConfig};

/// Thread counts: inline, even split, a prime, oversubscription.
const THREADS: [usize; 4] = [1, 2, 7, 16];

fn random_costs(n: usize, rng: &mut SmallRng, tie_heavy: bool) -> Vec<Cost> {
    (0..n)
        .map(|_| {
            Cost::from_units(if tie_heavy {
                rng.gen_range(0..4)
            } else {
                rng.gen_range(0..500_000)
            })
        })
        .collect()
}

/// A random instance: UDG or Erdős–Rényi topology plus 1–4 distinct APs.
fn instance(seed: u64, udg: bool, ties: bool) -> (NodeWeightedGraph, Vec<NodeId>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(8..24);
    let g = if udg {
        let region = Region::new(2000.0, 2000.0);
        let range = rng.gen_range(500.0..1000.0);
        let points = random_placement(n, region, &mut rng);
        let pairs: Vec<(u32, u32)> = pairs_within_range(&points, range)
            .into_iter()
            .map(|(u, v)| (u.0, v.0))
            .collect();
        NodeWeightedGraph::new(
            adjacency_from_pairs(n, &pairs),
            random_costs(n, &mut rng, ties),
        )
    } else {
        let base = erdos_renyi(n, rng.gen_range(0.2..0.5), &mut rng);
        let edges: Vec<(u32, u32)> = base.edges().map(|(u, v)| (u.0, v.0)).collect();
        NodeWeightedGraph::new(
            adjacency_from_pairs(n, &edges),
            random_costs(n, &mut rng, ties),
        )
    };
    let k = rng.gen_range(1..=4usize.min(n));
    let mut aps = Vec::with_capacity(k);
    while aps.len() < k {
        let ap = NodeId(rng.gen_range(0..n as u32));
        if !aps.contains(&ap) {
            aps.push(ap);
        }
    }
    (g, aps)
}

/// The dumb oracle: k independent library runs, then per-source argmin
/// by LCP cost with the lowest-index tie-break.
fn oracle(g: &NodeWeightedGraph, aps: &[NodeId]) -> Vec<Option<(usize, UnicastPricing)>> {
    let tables: Vec<Vec<Option<UnicastPricing>>> =
        aps.iter().map(|&ap| all_sources_payments(g, ap)).collect();
    (0..g.num_nodes())
        .map(|v| {
            let mut best: Option<(usize, &UnicastPricing)> = None;
            for (i, table) in tables.iter().enumerate() {
                if let Some(p) = table[v].as_ref() {
                    match best {
                        Some((_, b)) if p.lcp_cost >= b.lcp_cost => {}
                        _ => best = Some((i, p)),
                    }
                }
            }
            best.map(|(i, p)| (i, p.clone()))
        })
        .collect()
}

/// Serves every node as a source (one batch) and checks each outcome
/// against the oracle. `expected_generation` pins the snapshot epoch
/// settlements must have priced against.
fn check_batch(
    service: &PaymentService,
    g: &NodeWeightedGraph,
    aps: &[NodeId],
    expected_generation: u64,
) -> Result<(), String> {
    let sources: Vec<NodeId> = (0..g.num_nodes() as u32).map(NodeId).collect();
    let expected = oracle(g, aps);
    let outcomes = service.serve_batch(&sources);
    prop_assert_eq!(outcomes.len(), sources.len(), "one outcome per session");
    for (v, outcome) in outcomes.iter().enumerate() {
        match (&expected[v], outcome) {
            (None, ServeOutcome::Unreachable) => {}
            (Some((ap_index, pricing)), ServeOutcome::Settled(s)) => {
                prop_assert_eq!(s.source, NodeId(v as u32), "source echo");
                prop_assert_eq!(s.ap_index, *ap_index, "winning AP for source {}", v);
                prop_assert_eq!(s.ap, aps[*ap_index], "AP id for source {}", v);
                prop_assert_eq!(s.generation, expected_generation, "generation stamp");
                prop_assert_eq!(&s.pricing, pricing, "pricing for source {}", v);
            }
            (want, got) => {
                return Err(format!("source {v}: oracle {want:?} vs service {got:?}"));
            }
        }
    }
    Ok(())
}

/// Random instances, both topology families, tie-heavy and wide-range
/// costs, all thread counts: anycast settlement == argmin of k library
/// runs, bit for bit.
#[test]
fn anycast_matches_argmin_of_library_runs() {
    forall!(cases(16), (0u64..1 << 48, bools(), bools()), |(
        seed,
        udg,
        ties,
    )| {
        let (g, aps) = instance(seed, udg, ties);
        for threads in THREADS {
            let cfg = ServiceConfig::new(aps.clone()).threads(threads);
            let service = PaymentService::new(&cfg, &g);
            check_batch(&service, &g, &aps, 1)?;
        }
        Ok(())
    });
}

/// Both queue kinds must settle identically (each kind is internally
/// consistent between the shard engines and the library oracle runs,
/// which share the process-default kind — so pin the oracle's kind by
/// comparing service-vs-service across kinds *and* service-vs-oracle on
/// the default kind).
#[test]
fn both_queue_kinds_settle_identically() {
    forall!(cases(8), (0u64..1 << 48, bools()), |(seed, ties)| {
        let (g, aps) = instance(seed, false, ties);
        let sources: Vec<NodeId> = (0..g.num_nodes() as u32).map(NodeId).collect();
        let mut per_kind = Vec::new();
        for kind in [QueueKind::Radix, QueueKind::Binary] {
            let cfg = ServiceConfig::new(aps.clone()).threads(2).queue_kind(kind);
            let service = PaymentService::new(&cfg, &g);
            if kind == QueueKind::from_env() {
                check_batch(&service, &g, &aps, 1)?;
            }
            per_kind.push(
                service
                    .serve_batch(&sources)
                    .iter()
                    .map(|o| match o {
                        ServeOutcome::Settled(s) => {
                            Some((s.ap_index, s.pricing.lcp_cost, s.pricing.total_payment()))
                        }
                        ServeOutcome::Shed { .. } => unreachable!("unbounded queue"),
                        ServeOutcome::Unreachable => None,
                    })
                    .collect::<Vec<_>>(),
            );
        }
        prop_assert_eq!(&per_kind[0], &per_kind[1], "radix vs binary settlement");
        Ok(())
    });
}

/// Settlement must track mobility: re-run the differential check after
/// each of several epochs (cost tweaks + edge churn), with the expected
/// generation advancing by one per epoch.
#[test]
fn anycast_stays_exact_across_epochs() {
    forall!(cases(8), (0u64..1 << 48, bools()), |(seed, ties)| {
        let (g0, aps) = instance(seed, true, ties);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xE70C);
        let cfg = ServiceConfig::new(aps.clone()).threads(7);
        let service = PaymentService::new(&cfg, &g0);
        check_batch(&service, &g0, &aps, 1)?;
        let mut g = g0;
        for epoch in 2..5u64 {
            // A couple of node-cost tweaks per epoch: the repair path.
            for _ in 0..2 {
                let v = NodeId(rng.gen_range(0..g.num_nodes() as u32));
                g = g.with_declared(v, Cost::from_units(rng.gen_range(0..10)));
            }
            service.begin_epoch(&g);
            prop_assert_eq!(service.generation(), epoch, "generation after epoch");
            check_batch(&service, &g, &aps, epoch)?;
        }
        Ok(())
    });
}

/// An epoch is published whole or not at all: a `begin_epoch_mapped`
/// whose map does not fit the epoch graph panics in the first shard it
/// reaches, and the service keeps serving the previous generation,
/// bit-identical to the oracle, at every thread count. A correct retry
/// then publishes normally: the shards' engines were left warm.
#[test]
fn a_panicking_epoch_publishes_nothing() {
    forall!(cases(8), (0u64..1 << 48, bools()), |(seed, udg)| {
        let (g0, aps) = instance(seed, udg, false);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xFA11);
        let v = NodeId(rng.gen_range(0..g0.num_nodes() as u32));
        let g1 = g0.with_declared(v, Cost::from_units(rng.gen_range(0..10)));
        for threads in THREADS {
            let cfg = ServiceConfig::new(aps.clone()).threads(threads);
            let service = PaymentService::new(&cfg, &g0);
            service.begin_epoch(&g1);
            // One node too many for g1: every shard's engine rejects it.
            let bad = NodeMap::join(g1.num_nodes(), 1);
            let failed = catch_unwind(AssertUnwindSafe(|| service.begin_epoch_mapped(&g1, &bad)));
            prop_assert!(failed.is_err(), "a mismatched map must panic");
            prop_assert_eq!(service.generation(), 2, "nothing was published");
            check_batch(&service, &g1, &aps, 2)?;
            service.begin_epoch_mapped(&g0, &NodeMap::identity(g0.num_nodes()));
            prop_assert_eq!(service.generation(), 3, "a correct retry publishes");
            check_batch(&service, &g0, &aps, 3)?;
        }
        Ok(())
    });
}

/// Equal-cost AP ties settle at the lowest AP index — pinned on a
/// hand-built instance where both APs quote *exactly* the same LCP cost
/// from every source, checked at every thread count.
#[test]
fn equal_cost_ties_settle_at_lowest_ap_index() {
    // A mirror: source 2 reaches AP 0 via relay 1 (cost 5) and AP 4 via
    // relay 3 (cost 5). Source 5 hangs off source 2.
    let g = NodeWeightedGraph::from_pairs_units(
        &[(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)],
        &[0, 5, 2, 5, 0, 9],
    );
    let aps = vec![NodeId(0), NodeId(4)];
    for threads in THREADS {
        let cfg = ServiceConfig::new(aps.clone()).threads(threads);
        let service = PaymentService::new(&cfg, &g);
        let outcomes = service.serve_batch(&[NodeId(2), NodeId(5)]);
        for o in &outcomes {
            let s = o.settlement().expect("mirror sources settle");
            assert_eq!(
                s.ap_index, 0,
                "equal-cost tie must break to AP index 0 at threads={threads}"
            );
        }
        // And the reversed AP list must settle at the *same physical AP*
        // only if it is still the lowest index — i.e. it flips to NodeId(4).
        let cfg = ServiceConfig::new(vec![NodeId(4), NodeId(0)]).threads(threads);
        let service = PaymentService::new(&cfg, &g);
        let outcomes = service.serve_batch(&[NodeId(2)]);
        let s = outcomes[0].settlement().expect("settles");
        assert_eq!(s.ap, NodeId(4), "tie-break follows list order, not node id");
    }
}

/// With a bounded queue, the full outcome vector — including *which*
/// sessions shed — is identical at every thread count: admission runs
/// in batch order after pricing, so shed decisions are deterministic.
#[test]
fn shed_pattern_is_thread_count_invariant() {
    forall!(cases(8), (0u64..1 << 48,), |(seed,)| {
        let (g, aps) = instance(seed, false, false);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
        // Oversubscribe: several sessions per node against a queue of 3.
        let sources: Vec<NodeId> = (0..g.num_nodes() * 4)
            .map(|_| NodeId(rng.gen_range(0..g.num_nodes() as u32)))
            .collect();
        let mut baseline: Option<Vec<String>> = None;
        for threads in THREADS {
            let cfg = ServiceConfig::new(aps.clone())
                .threads(threads)
                .queue_capacity(3);
            let service = PaymentService::new(&cfg, &g);
            let fingerprint: Vec<String> = service
                .serve_batch(&sources)
                .iter()
                .map(|o| match o {
                    ServeOutcome::Settled(s) => {
                        format!("settled:{}:{:?}", s.ap_index, s.pricing.lcp_cost)
                    }
                    ServeOutcome::Shed { ap_index } => format!("shed:{ap_index}"),
                    ServeOutcome::Unreachable => "unreachable".to_string(),
                })
                .collect();
            match &baseline {
                None => baseline = Some(fingerprint),
                Some(b) => {
                    prop_assert_eq!(b, &fingerprint, "outcomes diverged at threads={}", threads)
                }
            }
        }
        // The capacity-3 queues must actually have shed something on an
        // oversubscribed batch with at least one settling source.
        let b = baseline.expect("at least one thread count ran");
        if b.iter().any(|s| s.starts_with("settled")) {
            prop_assert!(
                b.iter().any(|s| s.starts_with("shed")),
                "4x oversubscription vs capacity 3 must shed"
            );
        }
        Ok(())
    });
}
