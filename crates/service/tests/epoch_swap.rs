//! Epoch swaps under load: readers price continuously while a swapper
//! drives the service through several epochs, and **no reader ever
//! blocks** — the `service.epoch.blocked_readers` counter must end the
//! run at exactly zero, and every settlement must match the oracle for
//! the generation stamped on it (never a torn or mixed-epoch table).
//!
//! This is the acceptance test for the epoch-swap protocol: the service
//! prices all k shards, then publishes their tables together into the
//! inactive slot of its one [`EpochCell`] and flips the generation
//! atomically, so a reader either gets the old snapshot or the new one,
//! both complete. Node join/leave mid-run is included both ways:
//! unmapped resize epochs must surface per-shard as
//! [`EpochOutcome::ColdResize`] (counted under
//! `service.epoch.cold_resizes`), and identity-mapped churn epochs
//! driven through `begin_epoch_mapped` must surface as
//! [`EpochOutcome::WarmResize`] (counted under
//! `service.epoch.warm_resizes`) — all while readers keep settling and
//! never block. A second test runs a longer mapped churn trace and
//! checks each batch: one generation per batch, and no batch waits out
//! a publication.
//!
//! [`EpochCell`]: truthcast_service::EpochCell
//!
//! Both tests assert on the global `truthcast-obs` counters, so they
//! take [`OBS`] and run one at a time.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use truthcast_core::delta::EpochOutcome;
use truthcast_core::{all_sources_payments, UnicastPricing};
use truthcast_graph::generators::{pairs_within_range, random_placement};
use truthcast_graph::geometry::{Point, Region};
use truthcast_graph::{adjacency_from_pairs, Cost, NodeId, NodeMap, NodeWeightedGraph};
use truthcast_rt::{Rng, SeedableRng, SmallRng};
use truthcast_service::{PaymentService, ServeOutcome, ServiceConfig};

/// Held by each test for its whole run: the obs counters are global.
static OBS: Mutex<()> = Mutex::new(());

const READERS: usize = 3;
const SWAPS: usize = 6;

/// Epoch graphs, each with the [`NodeMap`] to drive it through (`None`
/// = the unmapped `begin_epoch` path): a base 8-node double-diamond,
/// cost tweaks for most epochs, one *unmapped* join/leave pair in the
/// middle (cold resizes), and a *mapped* join/leave pair at the end
/// (warm resizes). Both maps keep the APs (0 and 7) at their indices:
/// the join appends, and the leave removes the last index, which
/// `leave_swap` encodes as pure truncation.
fn epoch_graphs() -> Vec<(NodeWeightedGraph, Option<NodeMap>)> {
    let pairs8 = [
        (0, 1),
        (1, 2),
        (2, 7),
        (0, 3),
        (3, 7),
        (7, 4),
        (4, 5),
        (5, 6),
        (2, 6),
    ];
    let g0 = NodeWeightedGraph::from_pairs_units(&pairs8, &[0, 5, 3, 9, 2, 4, 6, 0]);
    let g1 = g0.with_declared(NodeId(1), Cost::from_units(2));
    // Node 8 joins, bridging the two diamonds.
    let mut pairs9: Vec<(u32, u32)> = pairs8.to_vec();
    pairs9.extend([(1, 8), (8, 5)]);
    let g2 = NodeWeightedGraph::from_pairs_units(&pairs9, &[0, 2, 3, 9, 2, 4, 6, 0, 1]);
    // Node 8 leaves again; relay 3 gets cheap.
    let g3 = g1.with_declared(NodeId(3), Cost::from_units(1));
    let g4 = g3.with_declared(NodeId(4), Cost::from_units(9));
    // Node 8 re-joins — this time with its identity carried in a map,
    // so the shards repair through the churn instead of going cold.
    let g5 = NodeWeightedGraph::from_pairs_units(&pairs9, &[0, 2, 3, 1, 9, 4, 6, 0, 1]);
    // And leaves again, also warm.
    let g6 = g4.clone();
    vec![
        (g0, None),
        (g1, None),
        (g2, None),
        (g3, None),
        (g4, None),
        (g5, Some(NodeMap::join(8, 1))),
        (g6, Some(NodeMap::leave_swap(9, NodeId(8)))),
    ]
}

#[test]
fn swaps_never_block_readers() {
    let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
    truthcast_obs::enable();
    truthcast_obs::reset();

    let graphs = epoch_graphs();
    let aps = vec![NodeId(0), NodeId(7)];
    // Readers use sources that exist in every epoch (indices < 8).
    let sources: Vec<NodeId> = (1..7).map(NodeId).collect();
    // expected[e][v]: generation e + 1 prices epoch graph e.
    let expected: Vec<_> = graphs
        .iter()
        .map(|(g, _)| anycast_oracle(g, &aps))
        .collect();

    // Threshold 1.0 pins every same-identity epoch to the repair path
    // (same convention as the engine-level batteries), so the mapped
    // churn epochs must surface as WarmResize on these small graphs.
    let cfg = ServiceConfig::new(aps.clone())
        .threads(1)
        .damage_threshold(1.0);
    let service = PaymentService::new(&cfg, &graphs[0].0);
    assert_eq!(service.generation(), 1);

    let done = AtomicBool::new(false);
    let batches = AtomicU64::new(0);
    let mut generations_seen: Vec<Vec<u64>> = Vec::new();
    let mut swap_log: Vec<(usize, Vec<EpochOutcome>, u64)> = Vec::new();

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..READERS {
            handles.push(scope.spawn(|| {
                let mut seen = Vec::new();
                while !done.load(Ordering::Relaxed) {
                    for outcome in service.serve_batch(&sources) {
                        let s = match outcome {
                            ServeOutcome::Settled(s) => s,
                            other => panic!("reader sources always settle, got {other:?}"),
                        };
                        let gen = s.generation;
                        assert!(
                            (1..=(SWAPS + 1) as u64).contains(&gen),
                            "generation {gen} out of range"
                        );
                        let (ap_index, pricing) = expected[(gen - 1) as usize][s.source.index()]
                            .as_ref()
                            .expect("settleable in every epoch");
                        assert_eq!(
                            (s.ap_index, &s.pricing),
                            (*ap_index, pricing),
                            "settlement must match the oracle for its own generation {gen}"
                        );
                        seen.push(gen);
                    }
                    batches.fetch_add(1, Ordering::Relaxed);
                }
                seen
            }));
        }

        // The swapper: drive the remaining epochs while readers hammer.
        // Outcomes are only *recorded* here and asserted after `done` is
        // set — a swapper assert inside the scope would leave the reader
        // loops running forever while the scope waits to join them.
        for (e, (g, map)) in graphs.iter().enumerate().skip(1) {
            std::thread::sleep(std::time::Duration::from_millis(20));
            let outcomes = match map {
                Some(m) => service.begin_epoch_mapped(g, m),
                None => service.begin_epoch(g),
            };
            swap_log.push((e, outcomes, service.generation()));
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        done.store(true, Ordering::Relaxed);
        for h in handles {
            generations_seen.push(h.join().expect("reader panicked"));
        }
    });

    for (e, outcomes, generation) in &swap_log {
        let (g, map) = &graphs[*e];
        assert_eq!(outcomes.len(), aps.len());
        if map.is_some() {
            for o in outcomes {
                assert!(
                    matches!(o, EpochOutcome::WarmResize { .. }),
                    "mapped churn epoch {e} must surface as WarmResize, got {o:?}"
                );
            }
        } else if g.num_nodes() != graphs[e - 1].0.num_nodes() {
            for o in outcomes {
                assert!(
                    matches!(o, EpochOutcome::ColdResize { .. }),
                    "unmapped join/leave epoch {e} must surface as ColdResize, got {o:?}"
                );
            }
        }
        assert_eq!(*generation, (*e + 1) as u64);
    }

    let snap = truthcast_obs::snapshot();
    truthcast_obs::disable();

    // The acceptance criterion: pricing continued across ≥3 swaps and no
    // reader ever blocked on a swap.
    assert_eq!(
        snap.counter("service.epoch.blocked_readers"),
        0,
        "a reader blocked on an epoch swap"
    );
    assert_eq!(
        snap.counter("service.epoch.swaps"),
        SWAPS as u64 + 1,
        "one publication per epoch plus set-up, whatever k is"
    );
    assert_eq!(
        snap.counter("service.epoch.cold_resizes"),
        (2 * aps.len()) as u64,
        "the unmapped join/leave pair stays cold"
    );
    assert_eq!(
        snap.counter("service.epoch.warm_resizes"),
        (2 * aps.len()) as u64,
        "the mapped join/leave pair repairs warm"
    );
    assert!(batches.load(Ordering::Relaxed) > 0, "readers made progress");
    for seen in &generations_seen {
        assert!(!seen.is_empty(), "every reader settled sessions");
    }
    // Readers collectively observed both the first and the last epoch
    // (they started before swap 1 and ran past the last swap).
    let all: Vec<u64> = generations_seen.iter().flatten().copied().collect();
    assert!(all.contains(&1), "pre-swap generation observed");
    assert!(
        all.contains(&((SWAPS + 1) as u64)),
        "post-swap generation observed"
    );
}

/// Churn trace size: APs at indices `0..CHURN_APS`, sources at
/// `CHURN_APS..CHURN_N`, and one extra node that joins and leaves at
/// index `CHURN_N` (appended, then truncated — no survivor is
/// renumbered, so every AP keeps its index).
const CHURN_N: usize = 160;
const CHURN_APS: usize = 4;
const CHURN_EPOCHS: usize = 8;
const CHURN_READERS: usize = 2;

/// A unit-disk deployment over `points` with per-node costs.
fn udg(points: &[Point], costs: &[Cost]) -> NodeWeightedGraph {
    let pairs: Vec<(u32, u32)> = pairs_within_range(points, 260.0)
        .into_iter()
        .map(|(u, v)| (u.0, v.0))
        .collect();
    NodeWeightedGraph::new(adjacency_from_pairs(points.len(), &pairs), costs.to_vec())
}

/// The mapped churn trace: odd epochs append one node, even epochs
/// remove it again, and every epoch also moves one source.
fn churn_trace(seed: u64) -> Vec<(NodeWeightedGraph, NodeMap)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let region = Region::new(1000.0, 1000.0);
    let mut points = random_placement(CHURN_N, region, &mut rng);
    let mut costs: Vec<Cost> = (0..CHURN_N)
        .map(|_| Cost::from_units(rng.gen_range(1..50)))
        .collect();
    let mut trace = vec![(udg(&points, &costs), NodeMap::identity(CHURN_N))];
    for e in 1..=CHURN_EPOCHS {
        let n = points.len();
        let map = if e % 2 == 1 {
            points.extend(random_placement(1, region, &mut rng));
            costs.push(Cost::from_units(rng.gen_range(1..50)));
            NodeMap::join(n, 1)
        } else {
            points.pop();
            costs.pop();
            NodeMap::leave_swap(n, NodeId::new(n - 1))
        };
        let moved = rng.gen_range(CHURN_APS..CHURN_N);
        points[moved] = random_placement(1, region, &mut rng)[0];
        trace.push((udg(&points, &costs), map));
    }
    trace
}

/// Per-source anycast oracle for one epoch graph: the winning AP index
/// and its pricing, by the lowest-index argmin over library runs.
fn anycast_oracle(g: &NodeWeightedGraph, aps: &[NodeId]) -> Vec<Option<(usize, UnicastPricing)>> {
    let tables: Vec<_> = aps.iter().map(|&ap| all_sources_payments(g, ap)).collect();
    (0..g.num_nodes())
        .map(|v| {
            let mut best: Option<(usize, &UnicastPricing)> = None;
            for (i, t) in tables.iter().enumerate() {
                if let Some(p) = t[v].as_ref() {
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

/// What one reader saw over a churn run.
#[derive(Default)]
struct ReaderLog {
    batches: usize,
    worst_batch: Duration,
    generations: Vec<u64>,
    failures: Vec<String>,
}

#[test]
fn churn_batches_price_one_generation_and_never_wait_for_a_publish() {
    let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
    truthcast_obs::enable();
    truthcast_obs::reset();

    let trace = churn_trace(0xC4A2);
    let aps: Vec<NodeId> = (0..CHURN_APS).map(NodeId::new).collect();
    let sources: Vec<NodeId> = (CHURN_APS..CHURN_N).map(NodeId::new).collect();
    // expected[e][v]: generation e + 1 prices trace epoch e.
    let expected: Vec<_> = trace.iter().map(|(g, _)| anycast_oracle(g, &aps)).collect();
    let cfg = ServiceConfig::new(aps.clone())
        .threads(1)
        .damage_threshold(1.0);
    let service = PaymentService::new(&cfg, &trace[0].0);

    let done = AtomicBool::new(false);
    let batches = AtomicU64::new(0);
    let mut logs: Vec<ReaderLog> = Vec::new();
    let mut epoch_times: Vec<Duration> = Vec::new();
    let mut outcomes: Vec<Vec<EpochOutcome>> = Vec::new();
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..CHURN_READERS)
            .map(|_| {
                scope.spawn(|| {
                    let mut log = ReaderLog::default();
                    while !done.load(Ordering::Relaxed) {
                        let t = Instant::now();
                        let out = service.serve_batch(&sources);
                        log.worst_batch = log.worst_batch.max(t.elapsed());
                        log.batches += 1;
                        let mut gens: Vec<u64> = out
                            .iter()
                            .filter_map(|o| o.settlement().map(|s| s.generation))
                            .collect();
                        gens.dedup();
                        let [gen] = gens[..] else {
                            log.failures
                                .push(format!("one batch priced generations {gens:?}"));
                            continue;
                        };
                        log.generations.push(gen);
                        let Some(want) = expected.get((gen - 1) as usize) else {
                            log.failures.push(format!("generation {gen} out of range"));
                            continue;
                        };
                        for (v, o) in sources.iter().zip(&out) {
                            let got = o.settlement().map(|s| (s.ap_index, &s.pricing));
                            let oracle = want[v.index()].as_ref().map(|(i, p)| (*i, p));
                            if got != oracle {
                                log.failures.push(format!(
                                    "generation {gen} source {v}: {got:?} vs oracle {oracle:?}"
                                ));
                            }
                        }
                        service.drain();
                        batches.fetch_add(1, Ordering::Release);
                    }
                    log
                })
            })
            .collect();
        // Before each publish and after the last, wait until more
        // batches have finished than can have been in flight when the
        // previous publish returned: at least one of them then read the
        // current generation, so every generation is served.
        let served_since = |from: u64| {
            while batches.load(Ordering::Acquire) < from + CHURN_READERS as u64 + 1
                && !readers.iter().any(|h| h.is_finished())
            {
                std::thread::yield_now();
            }
        };
        for (g, map) in &trace[1..] {
            served_since(batches.load(Ordering::Acquire));
            let t = Instant::now();
            outcomes.push(service.begin_epoch_mapped(g, map));
            epoch_times.push(t.elapsed());
        }
        served_since(batches.load(Ordering::Acquire));
        done.store(true, Ordering::Relaxed);
        logs = readers
            .into_iter()
            .map(|h| h.join().expect("reader panicked"))
            .collect();
    });
    let snap = truthcast_obs::snapshot();
    truthcast_obs::disable();

    for o in outcomes.iter().flatten() {
        assert!(
            matches!(o, EpochOutcome::WarmResize { .. }),
            "every churn epoch repairs warm, got {o:?}"
        );
    }
    assert_eq!(service.generation(), (CHURN_EPOCHS + 1) as u64);
    for log in &logs {
        assert!(
            log.failures.is_empty(),
            "{:#?}",
            &log.failures[..log.failures.len().min(5)]
        );
        assert!(log.batches > 0, "every reader served batches");
    }
    let mut seen: Vec<u64> = logs.iter().flat_map(|l| l.generations.clone()).collect();
    seen.sort_unstable();
    seen.dedup();
    let all: Vec<u64> = (1..=(CHURN_EPOCHS + 1) as u64).collect();
    assert_eq!(seen, all, "readers served every generation");
    // A batch that had to wait for the rest of a half-published epoch
    // takes most of an epoch: with one cell per shard, this test's worst
    // batch took 87-109 ms against 44-71 ms epochs (debug build, 2-vCPU
    // Xeon). Reading the one cell takes microseconds, so only
    // preemption can stretch a batch.
    let shortest_epoch = *epoch_times.iter().min().expect("epochs ran");
    let worst_batch = logs
        .iter()
        .map(|l| l.worst_batch)
        .max()
        .expect("readers ran");
    let bound = (shortest_epoch / 2).max(Duration::from_millis(25));
    assert!(
        worst_batch < bound,
        "worst batch {worst_batch:?} vs bound {bound:?} (shortest epoch {shortest_epoch:?})"
    );
    assert_eq!(snap.counter("service.epoch.blocked_readers"), 0);
    assert_eq!(snap.counter("service.epoch.swaps"), CHURN_EPOCHS as u64 + 1);
    assert_eq!(
        snap.counter("service.epoch.warm_resizes"),
        (CHURN_EPOCHS * CHURN_APS) as u64
    );
}
