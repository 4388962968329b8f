//! Edge-weighted Dijkstra over [`LinkWeightedDigraph`]s.
//!
//! Used by the paper's Section III-F model, where directed link costs are
//! the agents' declared vector types. Supports forward sweeps (from a
//! source), backward sweeps (to a target, over reversed arcs), node masks
//! (agent removal), and early termination at a target — the latter is the
//! workhorse optimization of our naive payment baseline.
//!
//! The sweep runs on the workspace's monotone radix heap and specializes
//! the relax loop on whether any avoidance constraint is active, so the
//! unconstrained hot path (every batch pricing sweep) runs with no
//! per-arc mask or edge checks.

use crate::cost::Cost;
use crate::ids::NodeId;
use crate::link_weighted::{LinkWeightedDigraph, PackedArc};
use crate::mask::NodeMask;
use crate::radix_heap::RadixHeap;
use crate::sweep_obs::SweepCounters;
use crate::workspace::{DijkstraWorkspace, SweepTables};

/// Sweep direction for [`dijkstra`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Distances *from* the origin along arc directions.
    Forward,
    /// Distances *to* the origin (runs over reversed arcs).
    Backward,
}

/// The result of a shortest-path sweep: per-node distance and predecessor.
///
/// For [`Direction::Forward`], `parent[v]` is the node preceding `v` on a
/// shortest `origin → v` path. For [`Direction::Backward`], `parent[v]` is
/// the node *following* `v` on a shortest `v → origin` path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DistanceTable {
    /// Origin of the sweep.
    pub origin: NodeId,
    /// Sweep direction.
    pub direction: Direction,
    /// `dist[v]`: shortest-path cost, or `Cost::INF` if unreachable.
    pub dist: Vec<Cost>,
    /// Predecessor (forward) / successor (backward) links; `None` at the
    /// origin and at unreachable nodes.
    pub parent: Vec<Option<NodeId>>,
}

impl DistanceTable {
    /// Shortest-path cost to/from `v`.
    #[inline]
    pub fn dist(&self, v: NodeId) -> Cost {
        self.dist[v.index()]
    }

    /// Whether `v` was reached.
    #[inline]
    pub fn reached(&self, v: NodeId) -> bool {
        self.dist[v.index()].is_finite()
    }

    /// Reconstructs the path between the origin and `v`.
    ///
    /// Forward sweeps return `origin … v`; backward sweeps return
    /// `v … origin`. `None` if `v` is unreachable.
    pub fn path(&self, v: NodeId) -> Option<Vec<NodeId>> {
        if !self.reached(v) {
            return None;
        }
        let mut chain = vec![v];
        let mut cur = v;
        while let Some(p) = self.parent[cur.index()] {
            chain.push(p);
            cur = p;
            debug_assert!(chain.len() <= self.dist.len(), "parent cycle");
        }
        debug_assert_eq!(cur, self.origin);
        if self.direction == Direction::Forward {
            chain.reverse();
        }
        Some(chain)
    }
}

/// Options for a sweep.
#[derive(Clone, Copy, Default)]
pub struct DijkstraOptions<'a> {
    /// Nodes that may not be traversed (they may still be the origin or the
    /// early-exit target; blocking the origin yields an all-`INF` table).
    pub avoid: Option<&'a NodeMask>,
    /// An undirected link that may not be traversed (both arc directions
    /// are skipped) — edge-agent removal in the Nisan–Ronen model.
    pub avoid_edge: Option<(NodeId, NodeId)>,
    /// Stop as soon as this node is settled.
    pub target: Option<NodeId>,
}

/// Runs Dijkstra from `origin` over `g`.
///
/// One-shot wrapper over [`dijkstra_in`]: builds a fresh
/// [`DijkstraWorkspace`], runs the sweep, and steals the buffers for the
/// returned table. Batch callers should hold a workspace and call
/// [`dijkstra_in`] directly to amortize the allocations away.
pub fn dijkstra(
    g: &LinkWeightedDigraph,
    origin: NodeId,
    direction: Direction,
    opts: DijkstraOptions<'_>,
) -> DistanceTable {
    let mut ws = DijkstraWorkspace::with_capacity(g.num_nodes());
    dijkstra_in(&mut ws, g, origin, direction, opts);
    let (dist, parent) = ws.into_tables();
    DistanceTable {
        origin,
        direction,
        dist,
        parent,
    }
}

/// Runs an edge-weighted Dijkstra sweep inside a reusable workspace:
/// zero allocations once the workspace has grown to the graph size.
/// Results are read from the workspace ([`DijkstraWorkspace::dist`] /
/// [`DijkstraWorkspace::parent`] / [`DijkstraWorkspace::export_into`])
/// and stay valid until the next sweep begins.
///
/// Bit-identical to [`dijkstra`]: same heap, same relaxation order, same
/// tie-breaking.
pub fn dijkstra_in(
    ws: &mut DijkstraWorkspace,
    g: &LinkWeightedDigraph,
    origin: NodeId,
    direction: Direction,
    opts: DijkstraOptions<'_>,
) {
    ws.begin(g.num_nodes());
    link_sweep(&mut ws.tables, &mut ws.queue, g, origin, direction, opts);
}

/// The sweep body. The relax loop is duplicated so the common
/// unconstrained case (no mask, no removed edge) carries no per-arc
/// checks at all.
fn link_sweep(
    t: &mut SweepTables,
    queue: &mut RadixHeap,
    g: &LinkWeightedDigraph,
    origin: NodeId,
    direction: Direction,
    opts: DijkstraOptions<'_>,
) {
    let mut obs = SweepCounters::default();

    let origin_blocked = opts.avoid.is_some_and(|m| m.is_blocked(origin));
    if !origin_blocked {
        t.improve(origin.index(), Cost::ZERO, None);
        queue.push(origin.0, Cost::ZERO);
        obs.pushes += 1;
    }

    let constrained = opts.avoid.is_some() || opts.avoid_edge.is_some();
    while let Some((u32key, du)) = queue.pop_min() {
        obs.pops += 1;
        let u = NodeId(u32key);
        if Some(u) == opts.target {
            break;
        }
        let row = match direction {
            Direction::Forward => g.out_arcs(u),
            Direction::Backward => g.in_arcs(u),
        };
        if constrained {
            for &PackedArc { head: v, weight: w } in row {
                if opts.avoid.is_some_and(|m| m.is_blocked(v)) && Some(v) != opts.target {
                    continue;
                }
                if let Some((a, b)) = opts.avoid_edge {
                    if (u == a && v == b) || (u == b && v == a) {
                        continue;
                    }
                }
                obs.relaxations += 1;
                let cand = du + w;
                if cand < t.dist_at(v.index()) {
                    t.improve(v.index(), cand, Some(u));
                    if queue.push_or_decrease(v.0, cand) {
                        obs.pushes += 1;
                    } else {
                        obs.decrease_keys += 1;
                    }
                }
            }
        } else {
            for &PackedArc { head: v, weight: w } in row {
                obs.relaxations += 1;
                let cand = du + w;
                if cand < t.dist_at(v.index()) {
                    t.improve(v.index(), cand, Some(u));
                    if queue.push_or_decrease(v.0, cand) {
                        obs.pushes += 1;
                    } else {
                        obs.decrease_keys += 1;
                    }
                }
            }
        }
    }
    obs.radix_redistributes = queue.redistributed();
    obs.flush("graph.dijkstra");
}

/// Shortest `source → target` distance with optional node avoidance;
/// `Cost::INF` if disconnected.
pub fn st_distance(
    g: &LinkWeightedDigraph,
    source: NodeId,
    target: NodeId,
    avoid: Option<&NodeMask>,
) -> Cost {
    if source == target {
        return Cost::ZERO;
    }
    let table = dijkstra(
        g,
        source,
        Direction::Forward,
        DijkstraOptions {
            avoid,
            avoid_edge: None,
            target: Some(target),
        },
    );
    table.dist(target)
}

/// Shortest `source → target` distance with one undirected link removed.
pub fn st_distance_avoiding_edge(
    g: &LinkWeightedDigraph,
    source: NodeId,
    target: NodeId,
    edge: (NodeId, NodeId),
) -> Cost {
    if source == target {
        return Cost::ZERO;
    }
    let table = dijkstra(
        g,
        source,
        Direction::Forward,
        DijkstraOptions {
            avoid: None,
            avoid_edge: Some(edge),
            target: Some(target),
        },
    );
    table.dist(target)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arc(u: u32, v: u32, w: u64) -> (NodeId, NodeId, Cost) {
        (NodeId(u), NodeId(v), Cost::from_units(w))
    }

    /// 0 → 1 → 3 cost 2+2, 0 → 2 → 3 cost 1+5, 0 → 3 cost 9.
    fn sample() -> LinkWeightedDigraph {
        LinkWeightedDigraph::from_arcs(
            4,
            [
                arc(0, 1, 2),
                arc(1, 3, 2),
                arc(0, 2, 1),
                arc(2, 3, 5),
                arc(0, 3, 9),
            ],
        )
    }

    #[test]
    fn forward_distances_and_path() {
        let g = sample();
        let t = dijkstra(
            &g,
            NodeId(0),
            Direction::Forward,
            DijkstraOptions::default(),
        );
        assert_eq!(t.dist(NodeId(3)), Cost::from_units(4));
        assert_eq!(
            t.path(NodeId(3)),
            Some(vec![NodeId(0), NodeId(1), NodeId(3)])
        );
        assert_eq!(t.dist(NodeId(2)), Cost::from_units(1));
    }

    #[test]
    fn backward_distances() {
        let g = sample();
        let t = dijkstra(
            &g,
            NodeId(3),
            Direction::Backward,
            DijkstraOptions::default(),
        );
        assert_eq!(t.dist(NodeId(0)), Cost::from_units(4));
        assert_eq!(t.dist(NodeId(1)), Cost::from_units(2));
        assert_eq!(
            t.path(NodeId(0)),
            Some(vec![NodeId(0), NodeId(1), NodeId(3)])
        );
    }

    #[test]
    fn avoiding_a_node_reroutes() {
        let g = sample();
        let mask = NodeMask::from_nodes(4, [NodeId(1)]);
        let c = st_distance(&g, NodeId(0), NodeId(3), Some(&mask));
        assert_eq!(c, Cost::from_units(6)); // via node 2
        let mask2 = NodeMask::from_nodes(4, [NodeId(1), NodeId(2)]);
        let c2 = st_distance(&g, NodeId(0), NodeId(3), Some(&mask2));
        assert_eq!(c2, Cost::from_units(9)); // direct arc
    }

    #[test]
    fn unreachable_is_inf() {
        let g = LinkWeightedDigraph::from_arcs(3, [arc(0, 1, 1)]);
        let t = dijkstra(
            &g,
            NodeId(0),
            Direction::Forward,
            DijkstraOptions::default(),
        );
        assert_eq!(t.dist(NodeId(2)), Cost::INF);
        assert_eq!(t.path(NodeId(2)), None);
        // Arcs are directed: node 1 cannot reach node 0.
        assert_eq!(st_distance(&g, NodeId(1), NodeId(0), None), Cost::INF);
    }

    #[test]
    fn blocked_origin_reaches_nothing() {
        let g = sample();
        let mask = NodeMask::from_nodes(4, [NodeId(0)]);
        let t = dijkstra(
            &g,
            NodeId(0),
            Direction::Forward,
            DijkstraOptions {
                avoid: Some(&mask),
                avoid_edge: None,
                target: None,
            },
        );
        assert!(t.dist.iter().all(|d| d.is_inf()));
    }

    #[test]
    fn early_exit_matches_full_run() {
        let g = sample();
        let full = dijkstra(
            &g,
            NodeId(0),
            Direction::Forward,
            DijkstraOptions::default(),
        );
        let quick = st_distance(&g, NodeId(0), NodeId(3), None);
        assert_eq!(full.dist(NodeId(3)), quick);
    }

    #[test]
    fn zero_distance_to_self() {
        let g = sample();
        assert_eq!(st_distance(&g, NodeId(2), NodeId(2), None), Cost::ZERO);
    }

    #[test]
    fn avoiding_an_edge_reroutes() {
        let g = sample();
        // Removing edge (1, 3) forces 0 → 2 → 3.
        let c = st_distance_avoiding_edge(&g, NodeId(0), NodeId(3), (NodeId(1), NodeId(3)));
        assert_eq!(c, Cost::from_units(6));
        // Orientation of the pair does not matter.
        let c2 = st_distance_avoiding_edge(&g, NodeId(0), NodeId(3), (NodeId(3), NodeId(1)));
        assert_eq!(c2, c);
        // Removing an off-path edge changes nothing.
        let c3 = st_distance_avoiding_edge(&g, NodeId(0), NodeId(3), (NodeId(2), NodeId(3)));
        assert_eq!(c3, Cost::from_units(4));
    }
}
