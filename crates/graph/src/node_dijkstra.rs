//! Node-weighted Dijkstra over [`NodeWeightedGraph`]s, with the cost
//! conventions of the paper made explicit.
//!
//! The paper prices a path `Π(i,0) = v_i, …, v_0` as the sum of the **relay**
//! node costs — excluding both the source and the target. Rather than
//! special-casing endpoints everywhere, this module computes the *inclusive
//! tail distance*
//!
//! ```text
//! dist'(v) = min over paths origin → v of  Σ c_u  for u on the path, u ≠ origin
//! ```
//!
//! i.e. *including* `c_v` itself, with `dist'(origin) = 0`. This is the
//! `L'`/`R'` quantity from DESIGN.md: every candidate replacement-path
//! formula in Algorithm 1 becomes a uniform `L'(a) + R'(b)` with no endpoint
//! special cases. The paper's path cost `‖P(origin, v)‖` is recovered by
//! [`NodeDistanceTable::lcp_cost`], which subtracts `c_v` back off.

use crate::cost::Cost;
use crate::ids::NodeId;
use crate::mask::NodeMask;
use crate::node_weighted::NodeWeightedGraph;
use crate::radix_heap::RadixHeap;
use crate::sweep_obs::SweepCounters;
use crate::workspace::{DijkstraWorkspace, SweepTables};

/// Result of a node-weighted sweep (see module docs for the convention).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeDistanceTable {
    /// Origin of the sweep.
    pub origin: NodeId,
    /// Inclusive tail distances `dist'(v)` (see module docs).
    pub dist: Vec<Cost>,
    /// `parent[v]`: predecessor of `v` on a least-cost `origin → v` path.
    pub parent: Vec<Option<NodeId>>,
}

impl NodeDistanceTable {
    /// The inclusive tail distance `dist'(v)` (`L'`/`R'` in DESIGN.md).
    #[inline]
    pub fn dist_inclusive(&self, v: NodeId) -> Cost {
        self.dist[v.index()]
    }

    /// The paper's least-cost-path cost `‖P(origin, v)‖`, excluding both
    /// endpoint costs. `Cost::INF` if unreachable.
    pub fn lcp_cost(&self, g: &NodeWeightedGraph, v: NodeId) -> Cost {
        if v == self.origin {
            return Cost::ZERO;
        }
        self.dist[v.index()].saturating_sub(g.cost(v))
    }

    /// Whether `v` was reached.
    #[inline]
    pub fn reached(&self, v: NodeId) -> bool {
        self.dist[v.index()].is_finite()
    }

    /// The least-cost path `origin … v`, or `None` if unreachable.
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
        chain.reverse();
        Some(chain)
    }
}

/// Options for a node-weighted sweep.
#[derive(Clone, Copy, Default)]
pub struct NodeDijkstraOptions<'a> {
    /// Nodes that may not appear on any path (relay removal). Blocking the
    /// origin yields an all-`INF` table.
    pub avoid: Option<&'a NodeMask>,
    /// Stop as soon as this node is settled.
    pub target: Option<NodeId>,
}

/// Runs a node-weighted Dijkstra sweep from `origin`.
///
/// Because the graph is undirected and the node-cost metric is symmetric,
/// a sweep from the unicast *target* directly yields the `R'` table.
///
/// One-shot wrapper over [`node_dijkstra_in`]: builds a fresh
/// [`DijkstraWorkspace`], runs the sweep, and steals the buffers for the
/// returned table. Batch callers should hold a workspace and call
/// [`node_dijkstra_in`] directly to amortize the allocations away.
pub fn node_dijkstra(
    g: &NodeWeightedGraph,
    origin: NodeId,
    opts: NodeDijkstraOptions<'_>,
) -> NodeDistanceTable {
    let mut ws = DijkstraWorkspace::with_capacity(g.num_nodes());
    node_dijkstra_in(&mut ws, g, origin, opts);
    let (dist, parent) = ws.into_tables();
    NodeDistanceTable {
        origin,
        dist,
        parent,
    }
}

/// Runs a node-weighted Dijkstra sweep from `origin` inside a reusable
/// workspace: zero allocations once the workspace has grown to the graph
/// size. Results are read from the workspace
/// ([`DijkstraWorkspace::dist`] / [`DijkstraWorkspace::parent`] /
/// [`DijkstraWorkspace::export_into`]) and stay valid until the next
/// sweep begins.
///
/// Bit-identical to [`node_dijkstra`]: same heap, same relaxation order,
/// same tie-breaking.
pub fn node_dijkstra_in(
    ws: &mut DijkstraWorkspace,
    g: &NodeWeightedGraph,
    origin: NodeId,
    opts: NodeDijkstraOptions<'_>,
) {
    ws.begin(g.num_nodes());
    node_sweep(&mut ws.tables, &mut ws.queue, g, origin, opts);
}

/// The sweep body; the relax loop is specialized on mask presence so the
/// unmasked hot path carries no per-neighbor check.
fn node_sweep(
    t: &mut SweepTables,
    queue: &mut RadixHeap,
    g: &NodeWeightedGraph,
    origin: NodeId,
    opts: NodeDijkstraOptions<'_>,
) {
    let mut obs = SweepCounters::default();

    let origin_blocked = opts.avoid.is_some_and(|m| m.is_blocked(origin));
    if !origin_blocked {
        t.improve(origin.index(), Cost::ZERO, None);
        queue.push(origin.0, Cost::ZERO);
        obs.pushes += 1;
    }

    while let Some((ukey, du)) = queue.pop_min() {
        obs.pops += 1;
        let u = NodeId(ukey);
        if Some(u) == opts.target {
            break;
        }
        if let Some(mask) = opts.avoid {
            for &v in g.neighbors(u) {
                if mask.is_blocked(v) {
                    continue;
                }
                obs.relaxations += 1;
                let cand = du + g.cost(v);
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
            for &v in g.neighbors(u) {
                obs.relaxations += 1;
                let cand = du + g.cost(v);
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
    obs.flush("graph.node_dijkstra");
}

/// The paper's `‖P(s, t, G)‖` — least relay cost between `s` and `t`,
/// excluding endpoint costs — with optional node avoidance.
pub fn lcp_cost_between(
    g: &NodeWeightedGraph,
    s: NodeId,
    t: NodeId,
    avoid: Option<&NodeMask>,
) -> Cost {
    if s == t {
        return Cost::ZERO;
    }
    let table = node_dijkstra(
        g,
        s,
        NodeDijkstraOptions {
            avoid,
            target: Some(t),
        },
    );
    table.lcp_cost(g, t)
}

/// The least-cost path `s … t` itself, or `None` if disconnected.
pub fn lcp_between(
    g: &NodeWeightedGraph,
    s: NodeId,
    t: NodeId,
    avoid: Option<&NodeMask>,
) -> Option<Vec<NodeId>> {
    let table = node_dijkstra(
        g,
        s,
        NodeDijkstraOptions {
            avoid,
            target: Some(t),
        },
    );
    table.path(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper-style diamond: 0-1-3 with relay cost 5, 0-2-3 with relay cost 7.
    fn diamond() -> NodeWeightedGraph {
        NodeWeightedGraph::from_pairs_units(&[(0, 1), (1, 3), (0, 2), (2, 3)], &[1, 5, 7, 2])
    }

    #[test]
    fn inclusive_distance_convention() {
        let g = diamond();
        let t = node_dijkstra(&g, NodeId(0), NodeDijkstraOptions::default());
        assert_eq!(t.dist_inclusive(NodeId(0)), Cost::ZERO);
        assert_eq!(t.dist_inclusive(NodeId(1)), Cost::from_units(5));
        assert_eq!(t.dist_inclusive(NodeId(3)), Cost::from_units(7)); // 5 + 2
    }

    #[test]
    fn lcp_cost_excludes_endpoints() {
        let g = diamond();
        assert_eq!(
            lcp_cost_between(&g, NodeId(0), NodeId(3), None),
            Cost::from_units(5)
        );
        // Source cost (1) and target cost (2) never counted.
        assert_eq!(
            lcp_between(&g, NodeId(0), NodeId(3), None),
            Some(vec![NodeId(0), NodeId(1), NodeId(3)])
        );
    }

    #[test]
    fn avoiding_relay_switches_path() {
        let g = diamond();
        let mask = NodeMask::from_nodes(4, [NodeId(1)]);
        assert_eq!(
            lcp_cost_between(&g, NodeId(0), NodeId(3), Some(&mask)),
            Cost::from_units(7)
        );
        assert_eq!(
            lcp_between(&g, NodeId(0), NodeId(3), Some(&mask)),
            Some(vec![NodeId(0), NodeId(2), NodeId(3)])
        );
    }

    #[test]
    fn monopoly_removal_is_inf() {
        // A path graph: removing the middle node disconnects.
        let g = NodeWeightedGraph::from_pairs_units(&[(0, 1), (1, 2)], &[0, 4, 0]);
        let mask = NodeMask::from_nodes(3, [NodeId(1)]);
        assert_eq!(
            lcp_cost_between(&g, NodeId(0), NodeId(2), Some(&mask)),
            Cost::INF
        );
    }

    #[test]
    fn symmetric_sweeps_agree() {
        let g = diamond();
        let fwd = lcp_cost_between(&g, NodeId(0), NodeId(3), None);
        let bwd = lcp_cost_between(&g, NodeId(3), NodeId(0), None);
        assert_eq!(fwd, bwd);
    }

    #[test]
    fn neighbor_path_has_zero_relay_cost() {
        let g = diamond();
        assert_eq!(lcp_cost_between(&g, NodeId(0), NodeId(1), None), Cost::ZERO);
    }

    #[test]
    fn path_reconstruction_matches_cost() {
        let g = diamond();
        let p = lcp_between(&g, NodeId(0), NodeId(3), None).unwrap();
        assert_eq!(g.path_cost(&p), Some(Cost::from_units(5)));
    }
}
