//! Mobility stress: how churn affects the distributed computation.
//!
//! The paper's convergence guarantee assumes a static network; this
//! experiment quantifies the cost of *not* being static. Nodes move under
//! random waypoint between epochs; each epoch the distributed two-stage
//! protocol re-converges on the new topology and we record the rounds,
//! traffic, and how much each node's total payment drifted — the
//! re-pricing a mobile deployment would have to absorb.
//!
//! One warm [`IncrementalEngine`] lives across all epochs: per-source
//! payment totals and routes come from its cached tables, and each epoch
//! is priced at delta cost — a bit-identical graph short-cuts the whole
//! recomputation (the zero-delta fast path), a small delta repairs only
//! the dirty subtree slices, and heavy damage falls back to a cold sweep
//! (past `truthcast_core::delta::DEFAULT_DAMAGE_THRESHOLD`). Every
//! epoch's payments remain bit-identical to cold
//! re-pricing — see `truthcast_core::delta`. Reused epochs skip the
//! distributed re-convergence too (a real deployment would likewise sit
//! still), report zero rounds/broadcasts, and are counted by the
//! `experiments.mobility_epoch_reuse` obs counter.

use truthcast_rt::Rng;
use truthcast_rt::SeedableRng;
use truthcast_rt::SmallRng;

use truthcast_core::delta::{EpochOutcome, EpochStep, IncrementalEngine};
use truthcast_core::UnicastPricing;
use truthcast_distsim::run_distributed;
use truthcast_graph::geometry::Region;
use truthcast_graph::{Cost, NodeId, NodeMap, NodeWeightedGraph};
use truthcast_wireless::mobility::RandomWaypoint;
use truthcast_wireless::{Deployment, RadioParams};

/// One epoch's summary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpochReport {
    /// Epoch index.
    pub epoch: usize,
    /// Node count of this epoch's graph (varies along a churn trace).
    pub nodes: usize,
    /// Stage-1 + stage-2 rounds to re-converge.
    pub rounds: usize,
    /// Broadcasts spent this epoch.
    pub broadcasts: usize,
    /// Sources with a finite route this epoch.
    pub routable: usize,
    /// Mean absolute change of per-source total payment vs the previous
    /// epoch (over sources priced with *finite* totals in both), in cost
    /// units.
    pub mean_payment_drift: f64,
    /// Fraction of sources whose route changed since the previous epoch
    /// (over sources routed in both).
    pub route_churn: f64,
    /// Whether the warm engine reused the previous epoch's tables (graph
    /// bit-identical — nothing to re-converge).
    pub reused: bool,
    /// What the delta engine did this epoch (reuse, slice repair with its
    /// dirty-region size, damage fallback, or a cold first pass).
    pub outcome: EpochOutcome,
}

/// The epoch graph sequence of a random-waypoint run: a sim1 deployment
/// with scalar costs `U[1, 10]`, advanced `dt` seconds per epoch at
/// speeds `[min_speed, max_speed]` m/s. Node 0 is the AP and never moves.
pub fn mobility_epoch_graphs(
    n: usize,
    epochs: usize,
    dt: f64,
    min_speed: f64,
    max_speed: f64,
    seed: u64,
) -> Vec<NodeWeightedGraph> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut deployment = Deployment::paper_sim1(n, 2.0, &mut rng);
    let costs = deployment.random_node_costs(1.0, 10.0, &mut rng);
    let mut mobility =
        RandomWaypoint::new(&deployment, Region::PAPER, min_speed, max_speed, &mut rng);
    let mut graphs = Vec::with_capacity(epochs);
    for epoch in 0..epochs {
        if epoch > 0 {
            mobility.advance(&mut deployment, dt, &mut rng);
        }
        graphs.push(deployment.to_node_weighted(costs.clone()));
    }
    graphs
}

/// Prices a fixed epoch-graph sequence toward `ap` with one warm
/// [`IncrementalEngine`], re-running the distributed protocol on every
/// non-reused epoch. Drift compares per-source totals finite in both
/// adjacent epochs; churn compares routes present in both.
pub fn run_mobility_epochs(graphs: &[NodeWeightedGraph], ap: NodeId) -> Vec<EpochReport> {
    let mut reports = Vec::with_capacity(graphs.len());
    let n = graphs.first().map_or(0, NodeWeightedGraph::num_nodes);
    let mut prev_totals: Vec<Option<Cost>> = vec![None; n];
    let mut prev_routes: Vec<Option<Vec<NodeId>>> = vec![None; n];
    let mut engine = IncrementalEngine::new();

    for (epoch, g) in graphs.iter().enumerate() {
        let step = graphs[..epoch]
            .last()
            .and_then(|p| EpochStep::between(p, g, None));
        let pricings = engine.price_epoch(g, ap, step.as_ref());
        let outcome = engine.last_outcome();
        reports.push(report_epoch(
            epoch,
            g,
            ap,
            &pricings,
            outcome,
            &mut prev_totals,
            &mut prev_routes,
        ));
    }
    reports
}

/// Summarizes one priced epoch against the carried drift/churn
/// baselines (updating them in place), re-running the distributed
/// protocol on every non-reused epoch.
fn report_epoch(
    epoch: usize,
    g: &NodeWeightedGraph,
    ap: NodeId,
    pricings: &[Option<UnicastPricing>],
    outcome: EpochOutcome,
    prev_totals: &mut [Option<Cost>],
    prev_routes: &mut [Option<Vec<NodeId>>],
) -> EpochReport {
    let reused = outcome == EpochOutcome::Reused;
    let (rounds, broadcasts) = if reused {
        truthcast_obs::add("experiments.mobility_epoch_reuse", 1);
        (0, 0)
    } else {
        let run = run_distributed(g, ap);
        (
            run.spt.rounds + run.payments.rounds,
            run.spt.stats.broadcasts + run.payments.stats.broadcasts,
        )
    };

    let mut drift_sum = 0.0;
    let mut drift_count = 0usize;
    let mut churned = 0usize;
    let mut compared_routes = 0usize;
    let mut routable = 0usize;
    for (i, pricing) in pricings.iter().enumerate() {
        if NodeId(i as u32) == ap {
            continue;
        }
        let total = pricing.as_ref().map(|p| p.total_payment());
        if total.is_some() {
            routable += 1;
        }
        if let (Some(prev), Some(cur)) = (prev_totals[i], total) {
            if prev.is_finite() && cur.is_finite() {
                drift_sum += (cur.as_f64() - prev.as_f64()).abs();
                drift_count += 1;
            }
        }
        let route = pricing.as_ref().map(|p| p.path.clone());
        if let (Some(prev), Some(cur)) = (&prev_routes[i], &route) {
            compared_routes += 1;
            if prev != cur {
                churned += 1;
            }
        }
        prev_totals[i] = total;
        prev_routes[i] = route;
    }

    EpochReport {
        epoch,
        nodes: g.num_nodes(),
        rounds,
        broadcasts,
        routable,
        mean_payment_drift: if drift_count > 0 {
            drift_sum / drift_count as f64
        } else {
            0.0
        },
        route_churn: if compared_routes > 0 {
            churned as f64 / compared_routes as f64
        } else {
            0.0
        },
        reused,
        outcome,
    }
}

/// One churn-trace epoch: the graph plus the identity map from the
/// previous epoch's index space (identity for epoch 0).
#[derive(Clone, Debug)]
pub struct ChurnEpoch {
    /// This epoch's graph.
    pub graph: NodeWeightedGraph,
    /// Old-index → new-index identity map from the previous epoch.
    pub map: NodeMap,
}

/// The epoch sequence of a join/leave trace: a sim1 deployment whose
/// node *population* churns. Each epoch teleports a few survivors
/// (ordinary mobility) and then applies `⌈churn · n⌉` join/leave events
/// — a leave `swap_remove`s a non-AP node (the dense renumbering
/// [`NodeMap::leave_swap`] encodes), a join drops a fresh node with
/// paper-sim1 radio and a `U[1, 10]` cost into the region. Node 0 is
/// the AP: it never moves and never leaves, and since every removal
/// picks an index ≥ 1 it keeps index 0 along the whole trace.
pub fn churn_epoch_graphs(n: usize, epochs: usize, churn: f64, seed: u64) -> Vec<ChurnEpoch> {
    assert!(
        (0.0..=1.0).contains(&churn),
        "churn is a per-epoch rate in [0, 1]"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut deployment = Deployment::paper_sim1(n, 2.0, &mut rng);
    let mut costs = deployment.random_node_costs(1.0, 10.0, &mut rng);
    // Stable identities: tags[i] names the node at index i; the epoch
    // map is derived by locating surviving tags in the new tag list.
    let mut tags: Vec<u64> = (0..n as u64).collect();
    let mut next_tag = n as u64;
    let mut out = Vec::with_capacity(epochs);
    for epoch in 0..epochs {
        let map = if epoch == 0 {
            NodeMap::identity(deployment.num_nodes())
        } else {
            let old_tags = tags.clone();
            let cur = deployment.num_nodes();
            // Gentle survivor mobility: a short jitter, not a teleport —
            // the epoch's delta budget should be spent on the join/leave
            // churn, not on nodes swapping their entire neighborhoods
            // (which belongs to the fallback regime the damage threshold
            // guards, exercised by `run_mobility` at high speeds).
            for _ in 0..(cur / 40).max(1) {
                let v = rng.gen_range(1..cur);
                let p = &mut deployment.positions[v];
                p.x = (p.x + rng.gen_range(-60.0f64..=60.0)).clamp(0.0, Region::PAPER.width);
                p.y = (p.y + rng.gen_range(-60.0f64..=60.0)).clamp(0.0, Region::PAPER.height);
            }
            let events = (churn * cur as f64).ceil() as usize;
            for _ in 0..events {
                if rng.gen_bool(0.5) && deployment.num_nodes() > 4 {
                    let v = rng.gen_range(1..deployment.num_nodes());
                    deployment.positions.swap_remove(v);
                    deployment.radios.swap_remove(v);
                    costs.swap_remove(v);
                    tags.swap_remove(v);
                } else {
                    deployment.positions.push(truthcast_graph::geometry::Point {
                        x: rng.gen_range(0.0..=Region::PAPER.width),
                        y: rng.gen_range(0.0..=Region::PAPER.height),
                    });
                    deployment.radios.push(RadioParams::PAPER_SIM1);
                    costs.push(Cost::from_f64(rng.gen_range(1.0..=10.0)));
                    tags.push(next_tag);
                    next_tag += 1;
                }
            }
            let old_to_new = old_tags
                .iter()
                .map(|t| tags.iter().position(|u| u == t).map(|j| NodeId(j as u32)))
                .collect();
            NodeMap::from_old_to_new(old_to_new, tags.len())
        };
        out.push(ChurnEpoch {
            graph: deployment.to_node_weighted(costs.clone()),
            map,
        });
    }
    out
}

/// Prices a churn trace toward `ap` with one warm engine, each epoch
/// stepped through its [`NodeMap`] ([`EpochStep::between`]), so
/// join/leave epochs repair across the resize instead of re-warming
/// cold. Drift/churn baselines are carried *through the map*: a
/// survivor's previous total follows it to its new index, newborns
/// start without a baseline, and a previous route that referenced a
/// departed relay is dropped from the comparison.
pub fn run_mobility_churn_epochs(steps: &[ChurnEpoch], ap: NodeId) -> Vec<EpochReport> {
    let mut reports = Vec::with_capacity(steps.len());
    let mut prev_totals: Vec<Option<Cost>> = Vec::new();
    let mut prev_routes: Vec<Option<Vec<NodeId>>> = Vec::new();
    let mut engine = IncrementalEngine::new();

    for (epoch, step) in steps.iter().enumerate() {
        let n = step.graph.num_nodes();
        let diff = steps[..epoch]
            .last()
            .and_then(|p| EpochStep::between(&p.graph, &step.graph, Some(&step.map)));
        if epoch == 0 {
            prev_totals = vec![None; n];
            prev_routes = vec![None; n];
        } else {
            let mut totals = vec![None; n];
            let mut routes = vec![None; n];
            for old in 0..step.map.old_len() {
                if let Some(nv) = step.map.to_new(NodeId(old as u32)) {
                    totals[nv.index()] = prev_totals[old];
                    routes[nv.index()] = prev_routes[old].take().and_then(|r| {
                        r.into_iter()
                            .map(|v| step.map.to_new(v))
                            .collect::<Option<Vec<NodeId>>>()
                    });
                }
            }
            prev_totals = totals;
            prev_routes = routes;
        }

        let pricings = engine.price_epoch(&step.graph, ap, diff.as_ref());
        let outcome = engine.last_outcome();
        reports.push(report_epoch(
            epoch,
            &step.graph,
            ap,
            &pricings,
            outcome,
            &mut prev_totals,
            &mut prev_routes,
        ));
    }
    reports
}

/// Runs `epochs` epochs of join/leave churn at per-epoch rate `churn`
/// over a sim1 deployment, priced toward the never-departing AP 0.
pub fn run_mobility_churn(n: usize, epochs: usize, churn: f64, seed: u64) -> Vec<EpochReport> {
    let steps = churn_epoch_graphs(n, epochs, churn, seed);
    run_mobility_churn_epochs(&steps, NodeId(0))
}

/// Runs `epochs` epochs of `dt`-second movement at speeds
/// `[min_speed, max_speed]` m/s over a sim1 deployment with scalar costs
/// `U[1, 10]`.
pub fn run_mobility(
    n: usize,
    epochs: usize,
    dt: f64,
    min_speed: f64,
    max_speed: f64,
    seed: u64,
) -> Vec<EpochReport> {
    let graphs = mobility_epoch_graphs(n, epochs, dt, min_speed, max_speed, seed);
    run_mobility_epochs(&graphs, NodeId(0))
}

/// Text table for the mobility run.
pub fn mobility_table(rows: &[EpochReport]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6} {:>8} {:>12} {:>10} {:>15} {:>12} {:>16}",
        "epoch", "rounds", "broadcasts", "routable", "payment drift", "route churn", "pricing"
    );
    for r in rows {
        let pricing = match r.outcome {
            EpochOutcome::Cold => "cold".to_string(),
            EpochOutcome::ColdResize { from, to } => format!("resize({from}->{to})"),
            EpochOutcome::WarmResize { born, died, .. } => {
                format!("warm-resize({}->{})", r.nodes + died - born, r.nodes)
            }
            EpochOutcome::Reused => "reused".to_string(),
            EpochOutcome::Repaired { dirty_nodes, .. } => format!("repair({dirty_nodes})"),
            EpochOutcome::Fallback { dirty_nodes } => format!("fallback({dirty_nodes})"),
        };
        let _ = writeln!(
            out,
            "{:>6} {:>8} {:>12} {:>10} {:>15.3} {:>11.1}% {:>16}",
            r.epoch,
            r.rounds,
            r.broadcasts,
            r.routable,
            r.mean_payment_drift,
            100.0 * r.route_churn,
            pricing,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use truthcast_core::all_sources::all_sources_payments;

    #[test]
    fn static_epochs_have_no_drift() {
        let rows = run_mobility(60, 3, 30.0, 0.0, 0.0, 7);
        assert_eq!(rows.len(), 3);
        assert!(!rows[0].reused, "first epoch always computes");
        assert_eq!(rows[0].outcome, EpochOutcome::Cold);
        for r in &rows[1..] {
            assert_eq!(r.mean_payment_drift, 0.0, "{r:?}");
            assert_eq!(r.route_churn, 0.0);
            // Nothing moved: the warm engine must hit its zero-delta fast
            // path and skip re-convergence entirely.
            assert!(r.reused, "{r:?}");
            assert_eq!(r.outcome, EpochOutcome::Reused);
            assert_eq!(r.rounds, 0);
            assert_eq!(r.broadcasts, 0);
        }
    }

    #[test]
    fn movement_causes_drift_and_churn() {
        let rows = run_mobility(60, 4, 120.0, 5.0, 15.0, 8);
        let moved: f64 = rows[1..].iter().map(|r| r.route_churn).sum();
        assert!(moved > 0.0, "{rows:?}");
        // Re-convergence stays bounded by n regardless of churn.
        for r in &rows {
            assert!(r.rounds <= 2 * 60 + 2, "{r:?}");
        }
    }

    /// Regression for the reuse flag: a single moved node must *not* fire
    /// the epoch reuse path (the zero-delta fast path), and drift/churn
    /// must come out finite and well-defined over the finite-source
    /// intersection even though the move disconnects and re-prices part
    /// of the graph.
    #[test]
    fn one_node_move_does_not_reuse() {
        use truthcast_rt::Rng;
        let mut rng = SmallRng::seed_from_u64(41);
        let deployment = Deployment::paper_sim1(80, 2.0, &mut rng);
        let costs = deployment.random_node_costs(1.0, 10.0, &mut rng);
        let g0 = deployment.to_node_weighted(costs.clone());
        // Teleport one non-AP node far enough to change its neighborhood;
        // retry nodes until the topology actually differs (a node can
        // land with the same in-range set).
        let mut g1 = g0.clone();
        for v in 1..deployment.num_nodes() {
            let mut moved = deployment.clone();
            moved.positions[v].x = rng.gen_f64() * 2000.0;
            moved.positions[v].y = rng.gen_f64() * 2000.0;
            let cand = moved.to_node_weighted(costs.clone());
            if cand != g0 {
                g1 = cand;
                break;
            }
        }
        assert_ne!(g1, g0, "no single move changed the topology");

        let rows = run_mobility_epochs(&[g0.clone(), g1.clone()], NodeId(0));
        assert!(!rows[0].reused);
        assert!(!rows[1].reused, "one node moved: reuse must not fire");
        assert_ne!(rows[1].outcome, EpochOutcome::Reused);
        assert!(rows[1].rounds > 0, "non-reused epoch re-converges");
        assert!(rows[1].mean_payment_drift.is_finite());
        assert!((0.0..=1.0).contains(&rows[1].route_churn));
        // Routable counts stay consistent with a cold oracle per epoch.
        for (g, row) in [(&g0, &rows[0]), (&g1, &rows[1])] {
            let cold = all_sources_payments(g, NodeId(0));
            let cold_routable = cold
                .iter()
                .enumerate()
                .filter(|&(i, p)| i != 0 && p.is_some())
                .count();
            assert_eq!(row.routable, cold_routable, "epoch {}", row.epoch);
        }
    }

    #[test]
    fn table_renders() {
        let rows = run_mobility(40, 2, 10.0, 1.0, 2.0, 9);
        let t = mobility_table(&rows);
        assert!(t.contains("payment drift"));
        assert!(t.contains("pricing"));
    }

    /// A churn trace must warm-resize through join/leave epochs, keep
    /// its per-epoch tables bit-identical to a cold oracle, and render
    /// the `warm-resize(a->b)` outcome column (distinguishable from the
    /// unmapped `resize(a->b)`).
    #[test]
    fn churn_trace_warm_resizes_and_stays_exact() {
        let steps = churn_epoch_graphs(80, 5, 0.02, 11);
        let rows = run_mobility_churn_epochs(&steps, NodeId(0));
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].outcome, EpochOutcome::Cold);
        assert!(
            rows.iter()
                .any(|r| matches!(r.outcome, EpochOutcome::WarmResize { .. })),
            "{rows:?}"
        );
        for r in &rows {
            assert!(
                !matches!(r.outcome, EpochOutcome::ColdResize { .. }),
                "mapped churn must never surface as an unmapped resize: {r:?}"
            );
        }
        // Routable counts agree with a cold oracle on every epoch graph.
        for (step, row) in steps.iter().zip(&rows) {
            let cold = all_sources_payments(&step.graph, NodeId(0));
            let cold_routable = cold
                .iter()
                .enumerate()
                .filter(|&(i, p)| i != 0 && p.is_some())
                .count();
            assert_eq!(row.routable, cold_routable, "epoch {}", row.epoch);
            assert_eq!(row.nodes, step.graph.num_nodes());
        }
        let t = mobility_table(&rows);
        assert!(t.contains("warm-resize("), "{t}");
    }
}
