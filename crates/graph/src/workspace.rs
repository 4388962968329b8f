//! Reusable shortest-path sweep buffers with epoch-based clearing.
//!
//! A Dijkstra sweep needs a distance array, a predecessor array, and a
//! priority queue — all `O(n)` allocations. For one-shot queries that cost
//! is noise, but a batch engine pricing thousands of sessions over one
//! topology pays it per query. A [`DijkstraWorkspace`] owns those buffers
//! once and makes "clearing" them an epoch bump: every entry carries the
//! stamp of the sweep that wrote it, and a reader treats any entry with a
//! stale stamp as *unset* (`Cost::INF` distance, no parent). Starting a
//! new sweep is therefore `O(1)` — no `memset`, no allocation — and the
//! buffers grow monotonically to the largest graph seen.
//!
//! The workspace's queue is the monotone [`RadixHeap`] (`O(m + n log C)`
//! with bucket inserts instead of `log n` sift chains), the only sweep
//! engine, so every sweep in the process breaks ties the same way. The
//! binary-heap Dijkstra survives only as the reference oracle in
//! `crates/graph/tests/radix_vs_binary.rs`.
//!
//! Both sweep entry points ([`crate::dijkstra::dijkstra`] and
//! [`crate::node_dijkstra::node_dijkstra`]) run *through* a workspace —
//! the one-shot wrappers simply build a fresh one and steal its buffers
//! for the returned table, so the workspace-backed and one-shot paths are
//! the same code and produce bit-identical results (same relaxation
//! order, same tie-breaking). Batch callers keep a workspace per worker
//! thread and call the `*_in` variants
//! ([`crate::dijkstra::dijkstra_in`],
//! [`crate::node_dijkstra::node_dijkstra_in`]) to amortize every
//! allocation away.

use crate::cost::Cost;
use crate::ids::NodeId;
use crate::radix_heap::RadixHeap;

/// Epoch-stamped distance/predecessor tables shared by every sweep.
#[derive(Clone, Debug)]
pub(crate) struct SweepTables {
    /// Stamp of the current sweep; entries with `stamp[v] != epoch` are
    /// unset.
    epoch: u32,
    stamp: Vec<u32>,
    dist: Vec<Cost>,
    parent: Vec<Option<NodeId>>,
    /// Node count of the current sweep (≤ buffer capacity).
    n: usize,
}

impl SweepTables {
    fn with_capacity(n: usize) -> SweepTables {
        SweepTables {
            epoch: 0,
            stamp: vec![0; n],
            dist: vec![Cost::INF; n],
            parent: vec![None; n],
            n,
        }
    }

    /// Starts a new sweep over an `n`-node graph: bumps the epoch (an
    /// `O(1)` clear) and grows the buffers if needed.
    fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.dist.resize(n, Cost::INF);
            self.parent.resize(n, None);
        }
        if self.epoch == u32::MAX {
            // Once per 2^32 sweeps: hard-reset the stamps so the epoch can
            // wrap without ever aliasing a stale entry.
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.n = n;
    }

    /// Distance entry `i` of the current sweep ([`Cost::INF`] if unset).
    #[inline]
    pub(crate) fn dist_at(&self, i: usize) -> Cost {
        if self.stamp[i] == self.epoch {
            self.dist[i]
        } else {
            Cost::INF
        }
    }

    /// Parent entry `i` of the current sweep (`None` if unset).
    #[inline]
    pub(crate) fn parent_at(&self, i: usize) -> Option<NodeId> {
        if self.stamp[i] == self.epoch {
            self.parent[i]
        } else {
            None
        }
    }

    /// Writes entry `i`, stamping it as belonging to the current sweep.
    #[inline]
    pub(crate) fn improve(&mut self, i: usize, dist: Cost, parent: Option<NodeId>) {
        self.stamp[i] = self.epoch;
        self.dist[i] = dist;
        self.parent[i] = parent;
    }
}

/// Reusable sweep state: epoch-stamped distance/predecessor tables plus
/// the sweep's radix queue.
///
/// After a sweep the results stay readable from the workspace (via
/// [`dist`](DijkstraWorkspace::dist) /
/// [`parent`](DijkstraWorkspace::parent) /
/// [`export_into`](DijkstraWorkspace::export_into)) until the next sweep
/// begins.
#[derive(Clone, Debug)]
pub struct DijkstraWorkspace {
    pub(crate) tables: SweepTables,
    pub(crate) queue: RadixHeap,
}

impl Default for DijkstraWorkspace {
    fn default() -> DijkstraWorkspace {
        DijkstraWorkspace::new()
    }
}

impl DijkstraWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> DijkstraWorkspace {
        DijkstraWorkspace::with_capacity(0)
    }

    /// A workspace pre-sized for graphs of up to `n` nodes.
    pub fn with_capacity(n: usize) -> DijkstraWorkspace {
        DijkstraWorkspace {
            tables: SweepTables::with_capacity(n),
            queue: RadixHeap::new(n),
        }
    }

    /// Starts a new sweep over an `n`-node graph: bumps the table epoch
    /// (an `O(1)` clear), grows the buffers if needed, and resets the
    /// queue.
    pub(crate) fn begin(&mut self, n: usize) {
        self.tables.begin(n);
        self.queue.ensure_capacity(n);
        self.queue.clear();
    }

    /// Node count of the most recent sweep.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.tables.n
    }

    /// Shortest-path cost of `v` from the most recent sweep, or
    /// [`Cost::INF`] if it was not reached.
    #[inline]
    pub fn dist(&self, v: NodeId) -> Cost {
        self.tables.dist_at(v.index())
    }

    /// Predecessor of `v` from the most recent sweep (`None` at the origin
    /// and at unreached nodes).
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.tables.parent_at(v.index())
    }

    /// Copies the most recent sweep's tables into caller-owned buffers
    /// (cleared and refilled; capacity is reused across calls, so a batch
    /// loop allocates only until the buffers reach the graph size).
    pub fn export_into(&self, dist: &mut Vec<Cost>, parent: &mut Vec<Option<NodeId>>) {
        dist.clear();
        parent.clear();
        dist.extend((0..self.tables.n).map(|i| self.tables.dist_at(i)));
        parent.extend((0..self.tables.n).map(|i| self.tables.parent_at(i)));
    }

    /// Consumes the workspace, normalizing and returning the most recent
    /// sweep's `(dist, parent)` tables — the zero-copy path for the
    /// one-shot `dijkstra`/`node_dijkstra` wrappers and for batch engines
    /// materializing a cached table without an extra copy.
    pub fn into_tables(self) -> (Vec<Cost>, Vec<Option<NodeId>>) {
        let mut t = self.tables;
        for i in 0..t.n {
            if t.stamp[i] != t.epoch {
                t.dist[i] = Cost::INF;
                t.parent[i] = None;
            }
        }
        t.dist.truncate(t.n);
        t.parent.truncate(t.n);
        (t.dist, t.parent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_entries_are_unset() {
        let mut ws = DijkstraWorkspace::with_capacity(4);
        ws.begin(4);
        assert_eq!(ws.dist(NodeId(2)), Cost::INF);
        assert_eq!(ws.parent(NodeId(2)), None);
        assert_eq!(ws.num_nodes(), 4);
    }

    #[test]
    fn epoch_bump_clears_previous_sweep() {
        let mut ws = DijkstraWorkspace::new();
        ws.begin(3);
        ws.tables.improve(1, Cost::from_units(7), Some(NodeId(0)));
        assert_eq!(ws.dist(NodeId(1)), Cost::from_units(7));
        ws.begin(3);
        assert_eq!(ws.dist(NodeId(1)), Cost::INF);
        assert_eq!(ws.parent(NodeId(1)), None);
    }

    #[test]
    fn buffers_grow_and_shrink_logically() {
        let mut ws = DijkstraWorkspace::new();
        ws.begin(2);
        ws.tables.improve(1, Cost::from_units(1), None);
        ws.begin(5); // grow
        assert_eq!(ws.num_nodes(), 5);
        assert_eq!(ws.dist(NodeId(4)), Cost::INF);
        ws.tables.improve(4, Cost::from_units(9), Some(NodeId(0)));
        ws.begin(2); // logical shrink: capacity stays, n drops
        assert_eq!(ws.num_nodes(), 2);
        assert_eq!(ws.dist(NodeId(1)), Cost::INF);
    }

    #[test]
    fn epoch_wraparound_never_aliases() {
        let mut ws = DijkstraWorkspace::with_capacity(2);
        // Drive the epoch to the wrap boundary directly.
        ws.tables.epoch = u32::MAX - 1;
        ws.begin(2); // epoch == u32::MAX
        ws.tables.improve(0, Cost::from_units(3), None);
        assert_eq!(ws.dist(NodeId(0)), Cost::from_units(3));
        ws.begin(2); // wrap: stamps reset, epoch restarts at 1
        assert_eq!(ws.tables.epoch, 1);
        assert_eq!(ws.dist(NodeId(0)), Cost::INF);
        ws.tables.improve(1, Cost::from_units(4), None);
        assert_eq!(ws.dist(NodeId(1)), Cost::from_units(4));
        assert_eq!(ws.dist(NodeId(0)), Cost::INF);
    }

    #[test]
    fn export_and_into_tables_normalize() {
        let mut ws = DijkstraWorkspace::new();
        ws.begin(3);
        ws.tables.improve(0, Cost::ZERO, None);
        ws.tables.improve(2, Cost::from_units(5), Some(NodeId(0)));
        let mut dist = Vec::new();
        let mut parent = Vec::new();
        ws.export_into(&mut dist, &mut parent);
        assert_eq!(dist, vec![Cost::ZERO, Cost::INF, Cost::from_units(5)]);
        assert_eq!(parent, vec![None, None, Some(NodeId(0))]);
        let (d2, p2) = ws.into_tables();
        assert_eq!(d2, dist);
        assert_eq!(p2, parent);
    }
}
