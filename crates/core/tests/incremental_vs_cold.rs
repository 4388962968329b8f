//! Differential epoch battery: the warm [`IncrementalEngine`] must be
//! **bit-identical** to a cold [`AllSourcesEngine`] sweep at every epoch
//! of a mobility trace — payment tables *and* distance tables — at every
//! thread count, under both queue kinds, and at every damage threshold
//! (0.0 forces the fallback path, 1.0 forces slice repair, the default
//! exercises the crossover).
//!
//! Traces come in two flavors: UDG node teleports (a deployment where a
//! few nodes jump per epoch, re-deriving the in-range edge set) and
//! Erdős–Rényi edge flips (arbitrary link churn with occasional cost
//! tweaks). Tie-heavy cost profiles make LCP tie-ambiguity — and hence
//! the per-session fallback pipeline — flip on and off between epochs;
//! wide-range profiles keep the pure shared-sweep path hot. Both must
//! agree with cold re-pricing bit for bit.
//!
//! Audit-record equality lives in `incremental_audits.rs`: the obs
//! collector is process-global, so enabling it here would cross-pollute
//! the concurrently running battery tests (same isolation rule as
//! `profile_spans.rs`).
//!
//! Case count scales with `TRUTHCAST_CASES` (the CI heavy battery sets
//! it); a failure prints the `TRUTHCAST_SEED` that reproduces it.

use truthcast_core::all_sources::AllSourcesEngine;
use truthcast_core::delta::{EpochOutcome, IncrementalEngine};
use truthcast_graph::generators::{erdos_renyi, pairs_within_range, random_placement};
use truthcast_graph::geometry::Region;
use truthcast_graph::{adjacency_from_pairs, Cost, NodeId, NodeWeightedGraph, QueueKind};
use truthcast_rt::{bools, cases, forall, prop_assert, prop_assert_eq, Rng, SeedableRng, SmallRng};

/// Thread counts: the inline path, an even split, a prime that never
/// divides the relay count evenly, and oversubscription.
const THREADS: [usize; 4] = [1, 2, 7, 16];

/// Epochs per trace. Enough to chain repair-on-repaired-state several
/// times (the dangerous regime: a bug in epoch `k`'s repair only shows
/// up when epoch `k+1` repairs on top of the corrupted tables).
const EPOCHS: usize = 5;

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

/// UDG mobility: random placement, then 1–3 node teleports per epoch
/// (re-deriving the in-range edge set) plus one cost tweak, so every
/// epoch's delta mixes arc churn with node-cost churn.
fn udg_trace(seed: u64, ties: bool) -> Vec<NodeWeightedGraph> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(6..18);
    let region = Region::new(2000.0, 2000.0);
    let range = rng.gen_range(400.0..900.0);
    let mut points = random_placement(n, region, &mut rng);
    let mut costs = random_costs(n, &mut rng, ties);
    let mut graphs = Vec::with_capacity(EPOCHS);
    for epoch in 0..EPOCHS {
        if epoch > 0 {
            for _ in 0..rng.gen_range(1..4usize) {
                let v = rng.gen_range(0..n);
                points[v].x = rng.gen_range(0.0..=region.width);
                points[v].y = rng.gen_range(0.0..=region.height);
            }
            let v = rng.gen_range(0..n);
            costs[v] = Cost::from_units(if ties {
                rng.gen_range(0..4)
            } else {
                rng.gen_range(0..500_000)
            });
        }
        let pairs: Vec<(u32, u32)> = pairs_within_range(&points, range)
            .into_iter()
            .map(|(u, v)| (u.0, v.0))
            .collect();
        graphs.push(NodeWeightedGraph::new(
            adjacency_from_pairs(n, &pairs),
            costs.clone(),
        ));
    }
    graphs
}

/// Erdős–Rényi link churn: a base edge set, then a few random pair
/// flips per epoch (add if absent, drop if present) plus occasional
/// cost tweaks. Unlike the UDG trace this produces deltas with no
/// geometric locality at all.
fn er_trace(seed: u64, ties: bool) -> Vec<NodeWeightedGraph> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
    let n = rng.gen_range(6..18);
    let base = erdos_renyi(n, rng.gen_range(0.15..0.5), &mut rng);
    let mut edges: Vec<(u32, u32)> = base.edges().map(|(u, v)| (u.0, v.0)).collect();
    let mut costs = random_costs(n, &mut rng, ties);
    let mut graphs = Vec::with_capacity(EPOCHS);
    for epoch in 0..EPOCHS {
        if epoch > 0 {
            for _ in 0..rng.gen_range(1..5usize) {
                let u = rng.gen_range(0..n as u32);
                let v = rng.gen_range(0..n as u32);
                if u == v {
                    continue;
                }
                let pair = (u.min(v), u.max(v));
                if let Some(i) = edges.iter().position(|&e| e == pair) {
                    edges.swap_remove(i);
                } else {
                    edges.push(pair);
                }
            }
            if rng.gen_bool(0.5) {
                let v = rng.gen_range(0..n);
                costs[v] = Cost::from_units(if ties {
                    rng.gen_range(0..4)
                } else {
                    rng.gen_range(0..500_000)
                });
            }
        }
        graphs.push(NodeWeightedGraph::new(
            adjacency_from_pairs(n, &edges),
            costs.clone(),
        ));
    }
    graphs
}

/// Drives one warm engine down the trace and compares every epoch's
/// payment table *and* distance table against a fresh same-kind cold
/// engine. Returns the outcome sequence so callers can pin path
/// coverage.
fn check_trace(
    graphs: &[NodeWeightedGraph],
    ap: NodeId,
    mut engine: IncrementalEngine,
) -> Result<Vec<EpochOutcome>, String> {
    let mut outcomes = Vec::with_capacity(graphs.len());
    for (epoch, g) in graphs.iter().enumerate() {
        let got = engine.price_epoch(g, ap);
        let mut cold = AllSourcesEngine::with_queue(engine.threads(), engine.queue_kind());
        let expected = cold.price_all_sources(g, ap);
        let outcome = engine.last_outcome();
        prop_assert_eq!(
            &*got,
            &expected,
            "payments diverged: epoch={} outcome={:?}",
            epoch,
            outcome
        );
        prop_assert_eq!(
            engine.tables().0,
            cold.tables().0,
            "dist tables diverged: epoch={} outcome={:?}",
            epoch,
            outcome
        );
        outcomes.push(outcome);
    }
    Ok(outcomes)
}

/// UDG and Erdős–Rényi mobility traces, tie-heavy and wide-range costs,
/// all thread counts, with the damage threshold pinned to 1.0 so every
/// non-reused epoch goes down the slice-repair path (the code under
/// test; the fallback path is cold-sweep code already covered by
/// `all_sources_vs_fast.rs`).
#[test]
fn repair_matches_cold_across_threads() {
    forall!(cases(24), (0u64..1 << 48, bools(), bools()), |(
        seed,
        udg,
        ties,
    )| {
        let graphs = if udg {
            udg_trace(seed, ties)
        } else {
            er_trace(seed, ties)
        };
        let n = graphs[0].num_nodes();
        let ap = NodeId((seed % n as u64) as u32);
        for threads in THREADS {
            let engine = IncrementalEngine::with_threads(threads).with_damage_threshold(1.0);
            let outcomes = check_trace(&graphs, ap, engine)?;
            prop_assert_eq!(outcomes[0], EpochOutcome::Cold, "threads={}", threads);
            prop_assert!(
                outcomes
                    .iter()
                    .all(|o| !matches!(o, EpochOutcome::Fallback { .. })),
                "threshold 1.0 must never fall back: {:?}",
                outcomes
            );
        }
        Ok(())
    });
}

/// Both queue kinds: within one [`QueueKind`] the warm engine and the
/// cold engine share tie-breaking, so repair must land on identical
/// tables under Radix and Binary alike.
#[test]
fn repair_matches_cold_under_both_queue_kinds() {
    forall!(cases(16), (0u64..1 << 48, bools()), |(seed, ties)| {
        let graphs = er_trace(seed, ties);
        let ap = NodeId(0);
        for kind in [QueueKind::Radix, QueueKind::Binary] {
            let engine = IncrementalEngine::with_queue(2, kind).with_damage_threshold(1.0);
            check_trace(&graphs, ap, engine)?;
        }
        Ok(())
    });
}

/// The damage threshold is a pure performance knob: 0.0 (always fall
/// back to cold on any damage), the default crossover, and 1.0 (always
/// repair) must produce the same tables — and 0.0 must actually
/// exercise the fallback path on a damaged trace.
#[test]
fn damage_threshold_never_changes_outputs() {
    forall!(cases(12), (0u64..1 << 48, bools()), |(seed, ties)| {
        let graphs = udg_trace(seed, ties);
        let ap = NodeId(1 % graphs[0].num_nodes() as u32);
        for threshold in [0.0, truthcast_core::delta::DEFAULT_DAMAGE_THRESHOLD, 1.0] {
            let engine = IncrementalEngine::with_threads(2).with_damage_threshold(threshold);
            let outcomes = check_trace(&graphs, ap, engine)?;
            if threshold == 0.0 {
                // Any nonzero damage must fall back: a Repaired outcome
                // under threshold 0.0 can only be the inert-delta case.
                for o in &outcomes {
                    if let EpochOutcome::Repaired { dirty_nodes, .. } = o {
                        prop_assert_eq!(*dirty_nodes, 0, "{:?}", outcomes);
                    }
                }
            } else if threshold == 1.0 {
                // Threshold 1.0 can never fall back (damage ≤ n).
                prop_assert!(
                    outcomes
                        .iter()
                        .all(|o| !matches!(o, EpochOutcome::Fallback { .. })),
                    "{:?}",
                    outcomes
                );
            }
        }
        Ok(())
    });
}

/// Adversarial single-node move that flips LCP tie-ambiguity: epoch 2
/// adds the second arm of a diamond with exactly equal relay costs, so
/// the source at the far end flips from an unambiguous shared-sweep
/// source to an ambiguous fallback source; epoch 3 removes it again.
/// Repair must track the flip bit-exactly in both directions.
#[test]
fn tie_ambiguity_flip_stays_exact() {
    let units = [0u64, 5, 5, 1];
    let one_arm = NodeWeightedGraph::from_pairs_units(&[(0, 1), (1, 3), (0, 2)], &units);
    let diamond = NodeWeightedGraph::from_pairs_units(&[(0, 1), (1, 3), (0, 2), (2, 3)], &units);
    let graphs = [one_arm.clone(), diamond, one_arm];
    let ap = NodeId(0);

    let mut engine = IncrementalEngine::with_threads(2).with_damage_threshold(1.0);
    let mut fallback_counts = Vec::new();
    for (epoch, g) in graphs.iter().enumerate() {
        let got = engine.price_epoch(g, ap);
        let expected = AllSourcesEngine::with_threads(2).price_all_sources(g, ap);
        assert_eq!(*got, expected, "epoch {epoch}");
        if epoch > 0 {
            assert!(
                matches!(engine.last_outcome(), EpochOutcome::Repaired { .. }),
                "epoch {epoch}: {:?}",
                engine.last_outcome()
            );
        }
        fallback_counts.push(engine.last_fallback_sources());
    }
    // The diamond epoch makes node 3's continuation ambiguous (two tight
    // parents at equal cost), so the per-session fallback set must grow
    // and then shrink back.
    assert!(
        fallback_counts[1] > fallback_counts[0],
        "ambiguity must appear: {fallback_counts:?}"
    );
    assert!(
        fallback_counts[2] < fallback_counts[1],
        "ambiguity must disappear: {fallback_counts:?}"
    );
}

/// Adversarial AP disconnect/reconnect: epoch 2 severs the AP's only
/// link (every source goes unreachable), epoch 3 restores it. The
/// repair path must take the whole tree to `None` and resurrect it
/// bit-exactly — including on a longer chain where the re-seeded
/// Dijkstra has to rebuild several levels of parents.
#[test]
fn ap_disconnect_and_reconnect_stays_exact() {
    let units = [0u64, 3, 1, 4, 1, 5];
    let chain = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 3)];
    let severed = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 3)];
    let connected = NodeWeightedGraph::from_pairs_units(&chain, &units);
    let dark = NodeWeightedGraph::from_pairs_units(&severed, &units);
    let graphs = [connected.clone(), dark, connected];
    let ap = NodeId(0);

    let mut engine = IncrementalEngine::with_threads(2).with_damage_threshold(1.0);
    for (epoch, g) in graphs.iter().enumerate() {
        let got = engine.price_epoch(g, ap);
        let expected = AllSourcesEngine::with_threads(2).price_all_sources(g, ap);
        assert_eq!(*got, expected, "epoch {epoch}");
    }
    assert!(
        matches!(engine.last_outcome(), EpochOutcome::Repaired { .. }),
        "{:?}",
        engine.last_outcome()
    );
}
