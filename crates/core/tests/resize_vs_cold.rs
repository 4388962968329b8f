//! Differential churn battery: [`IncrementalEngine::price_epoch_mapped`]
//! must be **bit-identical** to a cold [`AllSourcesEngine`] sweep at
//! every epoch of a join/leave trace — payment tables *and* distance
//! tables — at every thread count, under both queue kinds, and at every
//! damage threshold.
//!
//! Traces track node *identity* explicitly: every node carries a tag,
//! joins push fresh tags, leaves `swap_remove` (the dense renumbering
//! [`NodeMap::leave_swap`] encodes), and the per-epoch map is derived by
//! locating each old tag in the new tag list — so the maps exercise
//! arbitrary renumberings, including the AP itself being swapped to a
//! new index. Mobility (teleports / edge flips) runs *through* the churn
//! so resize epochs also carry ordinary deltas.
//!
//! Case count scales with `TRUTHCAST_CASES` (the CI heavy battery sets
//! it); a failure prints the `TRUTHCAST_SEED` that reproduces it.

use truthcast_core::all_sources::AllSourcesEngine;
use truthcast_core::delta::{EpochOutcome, IncrementalEngine};
use truthcast_graph::generators::pairs_within_range;
use truthcast_graph::geometry::{Point, Region};
use truthcast_graph::{adjacency_from_pairs, Cost, NodeId, NodeMap, NodeWeightedGraph, QueueKind};
use truthcast_rt::{bools, cases, forall, prop_assert, prop_assert_eq, Rng, SeedableRng, SmallRng};

/// Thread counts: the inline path, an even split, a prime that never
/// divides the relay count evenly, and oversubscription.
const THREADS: [usize; 4] = [1, 2, 7, 16];

/// Epochs per trace — enough to chain warm resizes on top of previously
/// remapped state (the dangerous regime).
const EPOCHS: usize = 5;

/// Churn flavor for a trace.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    Join,
    Leave,
    Mixed,
}

/// One epoch step: the graph, the identity map from the previous
/// epoch's index space, and this epoch's AP index.
struct Step {
    graph: NodeWeightedGraph,
    map: NodeMap,
    ap: NodeId,
}

fn tweak_cost(rng: &mut SmallRng, ties: bool) -> Cost {
    Cost::from_units(if ties {
        rng.gen_range(0..4)
    } else {
        rng.gen_range(0..500_000)
    })
}

/// Derives the epoch's [`NodeMap`] by locating every old tag in the new
/// tag list (tags are unique; linear scan is fine at battery sizes).
fn map_from_tags(old_tags: &[u64], tags: &[u64]) -> NodeMap {
    let old_to_new = old_tags
        .iter()
        .map(|t| tags.iter().position(|u| u == t).map(NodeId::new))
        .collect();
    NodeMap::from_old_to_new(old_to_new, tags.len())
}

/// One churn event: a `swap_remove` at a concrete index, or a newborn
/// tag appended at the end. Ops replay in order onto any per-node
/// vector kept parallel to `tags`.
#[derive(Clone, Copy, Debug)]
enum Op {
    Leave(usize),
    Join(u64),
}

/// Applies the mode's join/leave ops to `tags` (never removing the AP's
/// tag, keeping at least 4 nodes alive) and returns the op sequence so
/// the caller can replay it on parallel per-node state.
fn churn_ops(
    rng: &mut SmallRng,
    mode: Mode,
    ap_tag: u64,
    tags: &mut Vec<u64>,
    next_tag: &mut u64,
) -> Vec<Op> {
    let (joins, leaves) = match mode {
        Mode::Join => (rng.gen_range(1..3usize), 0),
        Mode::Leave => (0, rng.gen_range(1..3usize)),
        Mode::Mixed => (rng.gen_range(0..3usize), rng.gen_range(0..3usize)),
    };
    let mut ops = Vec::new();
    for _ in 0..leaves {
        if tags.len() <= 4 {
            break;
        }
        let v = rng.gen_range(0..tags.len());
        if tags[v] == ap_tag {
            continue;
        }
        tags.swap_remove(v);
        ops.push(Op::Leave(v));
    }
    for _ in 0..joins {
        let t = *next_tag;
        *next_tag += 1;
        tags.push(t);
        ops.push(Op::Join(t));
    }
    ops
}

/// UDG churn: node teleports re-derive the in-range edge set every
/// epoch; joins drop a new point into the region, leaves `swap_remove`.
fn udg_trace(seed: u64, ties: bool, mode: Mode) -> Vec<Step> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n: usize = rng.gen_range(6..16);
    let region = Region::new(2000.0, 2000.0);
    let range = rng.gen_range(500.0..1100.0);
    let mut points: Vec<Point> = (0..n)
        .map(|_| Point {
            x: rng.gen_range(0.0..=region.width),
            y: rng.gen_range(0.0..=region.height),
        })
        .collect();
    let mut costs: Vec<Cost> = (0..n).map(|_| tweak_cost(&mut rng, ties)).collect();
    let mut tags: Vec<u64> = (0..n as u64).collect();
    let mut next_tag = n as u64;
    let ap_tag = tags[rng.gen_range(0..n)];
    let mut steps = Vec::with_capacity(EPOCHS);
    for epoch in 0..EPOCHS {
        let old_tags = tags.clone();
        if epoch > 0 {
            for _ in 0..rng.gen_range(1..3usize) {
                let v = rng.gen_range(0..tags.len());
                points[v].x = rng.gen_range(0.0..=region.width);
                points[v].y = rng.gen_range(0.0..=region.height);
            }
            let v = rng.gen_range(0..tags.len());
            costs[v] = tweak_cost(&mut rng, ties);
            for op in churn_ops(&mut rng, mode, ap_tag, &mut tags, &mut next_tag) {
                match op {
                    Op::Leave(v) => {
                        points.swap_remove(v);
                        costs.swap_remove(v);
                    }
                    Op::Join(_) => {
                        points.push(Point {
                            x: rng.gen_range(0.0..=region.width),
                            y: rng.gen_range(0.0..=region.height),
                        });
                        costs.push(tweak_cost(&mut rng, ties));
                    }
                }
            }
        }
        let cur = tags.len();
        let pairs: Vec<(u32, u32)> = pairs_within_range(&points, range)
            .into_iter()
            .map(|(u, v)| (u.0, v.0))
            .collect();
        steps.push(Step {
            graph: NodeWeightedGraph::new(adjacency_from_pairs(cur, &pairs), costs.clone()),
            map: if epoch == 0 {
                NodeMap::identity(cur)
            } else {
                map_from_tags(&old_tags, &tags)
            },
            ap: NodeId::new(tags.iter().position(|&t| t == ap_tag).unwrap()),
        });
    }
    steps
}

/// Erdős–Rényi churn with **tag-keyed** edges: flips and joins
/// manipulate tag pairs, and each epoch's index edge set is derived by
/// resolving tags — so a leave implicitly severs every arc of the
/// departed node, with zero geometric locality.
fn er_trace(seed: u64, ties: bool, mode: Mode) -> Vec<Step> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
    let n: usize = rng.gen_range(6..16);
    let mut tags: Vec<u64> = (0..n as u64).collect();
    let mut next_tag = n as u64;
    let mut costs: Vec<Cost> = (0..n).map(|_| tweak_cost(&mut rng, ties)).collect();
    let p = rng.gen_range(0.25..0.6);
    let mut edges: Vec<(u64, u64)> = Vec::new();
    for a in 0..n as u64 {
        for b in (a + 1)..n as u64 {
            if rng.gen_bool(p) {
                edges.push((a, b));
            }
        }
    }
    let ap_tag = tags[rng.gen_range(0..n)];
    let mut steps = Vec::with_capacity(EPOCHS);
    for epoch in 0..EPOCHS {
        let old_tags = tags.clone();
        if epoch > 0 {
            for _ in 0..rng.gen_range(1..4usize) {
                let u = tags[rng.gen_range(0..tags.len())];
                let v = tags[rng.gen_range(0..tags.len())];
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
                let v = rng.gen_range(0..tags.len());
                costs[v] = tweak_cost(&mut rng, ties);
            }
            let existing = tags.clone();
            for op in churn_ops(&mut rng, mode, ap_tag, &mut tags, &mut next_tag) {
                match op {
                    Op::Leave(v) => {
                        costs.swap_remove(v);
                    }
                    Op::Join(t) => {
                        costs.push(tweak_cost(&mut rng, ties));
                        for _ in 0..rng.gen_range(1..4usize) {
                            let w = existing[rng.gen_range(0..existing.len())];
                            edges.push((t.min(w), t.max(w)));
                        }
                    }
                }
            }
            edges.sort_unstable();
            edges.dedup();
        }
        let cur = tags.len();
        let pos = |t: u64| tags.iter().position(|&u| u == t);
        let pairs: Vec<(u32, u32)> = edges
            .iter()
            .filter_map(|&(a, b)| Some((pos(a)? as u32, pos(b)? as u32)))
            .collect();
        steps.push(Step {
            graph: NodeWeightedGraph::new(adjacency_from_pairs(cur, &pairs), costs.clone()),
            map: if epoch == 0 {
                NodeMap::identity(cur)
            } else {
                map_from_tags(&old_tags, &tags)
            },
            ap: NodeId::new(tags.iter().position(|&t| t == ap_tag).unwrap()),
        });
    }
    steps
}

/// Drives one warm engine down the churn trace via the mapped entry
/// point and compares every epoch's payment *and* distance tables
/// against a fresh same-kind cold engine.
fn check_trace(steps: &[Step], mut engine: IncrementalEngine) -> Result<Vec<EpochOutcome>, String> {
    let mut outcomes = Vec::with_capacity(steps.len());
    for (epoch, s) in steps.iter().enumerate() {
        let got = engine.price_epoch_mapped(&s.graph, s.ap, &s.map);
        let mut cold = AllSourcesEngine::with_queue(engine.threads(), engine.queue_kind());
        let expected = cold.price_all_sources(&s.graph, s.ap);
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

fn mode_of(seed: u64) -> Mode {
    match seed % 3 {
        0 => Mode::Join,
        1 => Mode::Leave,
        _ => Mode::Mixed,
    }
}

/// Join, leave, and mixed churn over UDG and Erdős–Rényi traces,
/// tie-heavy and wide-range costs, all thread counts, threshold pinned
/// to 1.0 so every resize epoch goes down the warm-repair path.
#[test]
fn warm_resize_matches_cold_across_threads() {
    forall!(cases(18), (0u64..1 << 48, bools(), bools()), |(
        seed,
        udg,
        ties,
    )| {
        let mode = mode_of(seed);
        let steps = if udg {
            udg_trace(seed, ties, mode)
        } else {
            er_trace(seed, ties, mode)
        };
        for threads in THREADS {
            let engine = IncrementalEngine::with_threads(threads).with_damage_threshold(1.0);
            let outcomes = check_trace(&steps, engine)?;
            prop_assert_eq!(outcomes[0], EpochOutcome::Cold, "threads={}", threads);
            for (epoch, (o, s)) in outcomes.iter().zip(steps.iter()).enumerate().skip(1) {
                prop_assert!(
                    !matches!(
                        o,
                        EpochOutcome::Fallback { .. } | EpochOutcome::ColdResize { .. }
                    ),
                    "threshold 1.0 must stay warm: epoch={} {:?}",
                    epoch,
                    outcomes
                );
                if !s.map.is_identity() {
                    prop_assert!(
                        matches!(o, EpochOutcome::WarmResize { .. }),
                        "churn epoch must warm-resize: epoch={} {:?}",
                        epoch,
                        outcomes
                    );
                }
            }
        }
        Ok(())
    });
}

/// Both queue kinds: within one [`QueueKind`] the warm engine and the
/// cold engine share tie-breaking, so cross-resize repair must land on
/// identical tables under Radix and Binary alike.
#[test]
fn warm_resize_matches_cold_under_both_queue_kinds() {
    forall!(cases(12), (0u64..1 << 48, bools()), |(seed, ties)| {
        let steps = er_trace(seed, ties, Mode::Mixed);
        for kind in [QueueKind::Radix, QueueKind::Binary] {
            let engine = IncrementalEngine::with_queue(2, kind).with_damage_threshold(1.0);
            check_trace(&steps, engine)?;
        }
        Ok(())
    });
}

/// The damage threshold stays a pure performance knob across resizes:
/// 0.0, the default crossover, and 1.0 must produce the same tables —
/// and 0.0 must actually route damaged churn epochs through the cold
/// fallback.
#[test]
fn resize_damage_threshold_never_changes_outputs() {
    forall!(cases(10), (0u64..1 << 48, bools()), |(seed, ties)| {
        let steps = udg_trace(seed, ties, Mode::Mixed);
        for threshold in [0.0, truthcast_core::delta::DEFAULT_DAMAGE_THRESHOLD, 1.0] {
            let engine = IncrementalEngine::with_threads(2).with_damage_threshold(threshold);
            let outcomes = check_trace(&steps, engine)?;
            if threshold == 0.0 {
                // Any nonzero damage must fall back: a warm outcome
                // under threshold 0.0 can only be the inert-delta case.
                for o in &outcomes {
                    if let EpochOutcome::Repaired { dirty_nodes, .. } = o {
                        prop_assert_eq!(*dirty_nodes, 0, "{:?}", outcomes);
                    }
                }
            } else if threshold == 1.0 {
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

/// Adversarial renumbering: the AP sits at the *last* index, so a
/// mid-trace leave swaps the AP itself to a new slot. The warm path
/// must follow the AP through the map.
#[test]
fn ap_renumbered_by_leave_swap_stays_warm() {
    let g0 = NodeWeightedGraph::from_pairs_units(&[(0, 1), (1, 2), (2, 3), (0, 3)], &[2, 4, 6, 0]);
    let ap0 = NodeId(3);
    // Node 1 departs; old node 3 (the AP) swaps into index 1.
    let map = NodeMap::leave_swap(4, NodeId(1));
    let g1 = NodeWeightedGraph::from_pairs_units(&[(2, 1), (0, 1), (0, 2)], &[2, 0, 6]);
    let ap1 = map.to_new(ap0).unwrap();
    assert_eq!(ap1, NodeId(1));

    let mut e = IncrementalEngine::with_threads(2).with_damage_threshold(1.0);
    e.price_epoch(&g0, ap0);
    let got = e.price_epoch_mapped(&g1, ap1, &map);
    assert!(
        matches!(
            e.last_outcome(),
            EpochOutcome::WarmResize {
                born: 0,
                died: 1,
                ..
            }
        ),
        "{:?}",
        e.last_outcome()
    );
    assert_eq!(
        *got,
        AllSourcesEngine::with_threads(2).price_all_sources(&g1, ap1)
    );
}

/// Adversarial decrease chain: two newborns arrive *as a chain* that
/// undercuts the old route, so the second newborn can only settle
/// through relaxation out of the first — the decrease-seed mechanics,
/// not the crossing-arc re-seed.
#[test]
fn chained_newborns_settle_through_decrease_seeds() {
    let g0 = NodeWeightedGraph::from_pairs_units(&[(0, 1), (1, 2)], &[0, 10, 3]);
    let ap = NodeId(0);
    let g1 = NodeWeightedGraph::from_pairs_units(
        &[(0, 1), (1, 2), (0, 3), (3, 4), (4, 2)],
        &[0, 10, 3, 1, 1],
    );
    let mut e = IncrementalEngine::with_threads(2).with_damage_threshold(1.0);
    e.price_epoch(&g0, ap);
    let got = e.price_epoch_mapped(&g1, ap, &NodeMap::join(3, 2));
    assert!(
        matches!(
            e.last_outcome(),
            EpochOutcome::WarmResize {
                born: 2,
                died: 0,
                ..
            }
        ),
        "{:?}",
        e.last_outcome()
    );
    let expected = AllSourcesEngine::with_threads(2).price_all_sources(&g1, ap);
    assert_eq!(*got, expected);
    // Node 2's route must actually have improved through the chain.
    assert_eq!(
        e.tables().0[2],
        Cost::from_units(5),
        "2 now routes via the newborn chain 4-3"
    );
}
