//! Batched VCG payment computation over a fixed topology.
//!
//! The paper's deployment story is many unicast sessions over one slowly
//! changing network: every node periodically prices a route to an access
//! point. Pricing each session independently with
//! [`crate::fast_payments`] repays two fixed costs per query that a batch
//! can amortize:
//!
//! * **Allocations** — each one-shot sweep builds fresh
//!   distance/predecessor/heap buffers. A [`PaymentEngine`] holds one
//!   [`DijkstraWorkspace`] per worker thread and runs every source sweep
//!   through [`node_dijkstra_in`], so the Dijkstra hot path allocates
//!   nothing once the buffers reach the graph size.
//! * **The destination-rooted sweep** — Algorithm 1 needs the `R'` table
//!   (shortest-path tree rooted at the destination). Sessions sharing an
//!   access point share that table; the engine computes it once per
//!   distinct destination and caches it for the engine's lifetime (the
//!   engine borrows the topology immutably, so the cache cannot go
//!   stale).
//!
//! Sessions are sharded across `std::thread::scope` workers by
//! [`truthcast_rt::par_map_with`], which re-sorts results by session
//! index — so the returned pricings are **deterministic and bit-identical
//! to the per-session algorithms at any thread count**, including 1. The
//! equivalence is structural, not coincidental: the one-shot sweeps run
//! through the same workspace code path (same heap, same relaxation
//! order, same tie-breaking), and the replacement-cost kernels are pure
//! functions of the resulting tables. The differential suite
//! (`tests/batch_vs_sequential.rs`) asserts this across thread counts on
//! random instances.
//!
//! Only the *returned values* are deterministic; observability side
//! effects (counter increments, audit-record order) interleave freely
//! across workers.

use std::collections::BTreeMap;

use truthcast_graph::dijkstra::{dijkstra_in, DijkstraOptions, Direction};
use truthcast_graph::node_dijkstra::{node_dijkstra_in, NodeDijkstraOptions, NodeDistanceTable};
use truthcast_graph::workspace::DijkstraWorkspace;
use truthcast_graph::{Cost, LinkWeightedDigraph, NodeId, NodeWeightedGraph, Spt};
use truthcast_mechanism::vcg::vcg_payment_selected;
use truthcast_rt::{default_threads, par_map_with};

use crate::fast::replacement_costs;
use crate::fast_symmetric::edge_weighted_replacement_costs;
use crate::levels::compute_levels;
use crate::pricing::UnicastPricing;
use crate::trace::audit_unicast;

/// One unicast pricing request: route `source → target` and pay the
/// relays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionQuery {
    /// The paying endpoint.
    pub source: NodeId,
    /// The destination (the access point, in the paper's deployment).
    pub target: NodeId,
}

impl SessionQuery {
    /// A `source → target` session. The endpoints must differ (asserted
    /// when the session is priced, matching the per-session algorithms).
    pub fn new(source: NodeId, target: NodeId) -> SessionQuery {
        SessionQuery { source, target }
    }
}

/// Per-worker reusable state: the sweep workspace plus export buffers.
///
/// One scratch lives on each worker thread for the whole batch; dropping
/// it records the worker's session count into the
/// `core.batch.sessions_per_worker` histogram. Shared with the
/// `all_sources` fallback path (which prices its tie-ambiguous sources
/// through the same per-session pipeline).
pub(crate) struct WorkerScratch {
    pub(crate) ws: DijkstraWorkspace,
    pub(crate) dist: Vec<Cost>,
    pub(crate) parent: Vec<Option<NodeId>>,
    pub(crate) sessions: u64,
    /// Per-session wall-clock latencies, flushed in one batch into the
    /// `core.batch.session_latency_ns` quantile sketch on drop.
    pub(crate) lat_ns: Vec<u64>,
}

impl WorkerScratch {
    pub(crate) fn new(n: usize) -> WorkerScratch {
        WorkerScratch {
            ws: DijkstraWorkspace::with_capacity(n),
            dist: Vec::with_capacity(n),
            parent: Vec::with_capacity(n),
            sessions: 0,
            lat_ns: Vec::new(),
        }
    }

    /// Start-of-session timestamp — `None` (one relaxed load, no clock
    /// read) when tracing is disabled.
    pub(crate) fn latency_clock() -> Option<std::time::Instant> {
        truthcast_obs::enabled().then(std::time::Instant::now)
    }

    /// Records one session's wall-clock latency for the batch sketch.
    pub(crate) fn record_latency(&mut self, t0: Option<std::time::Instant>) {
        if let Some(t0) = t0 {
            self.lat_ns.push(t0.elapsed().as_nanos() as u64);
        }
    }
}

impl Drop for WorkerScratch {
    fn drop(&mut self) {
        if truthcast_obs::enabled() {
            if self.sessions > 0 {
                truthcast_obs::observe("core.batch.sessions_per_worker", self.sessions);
            }
            truthcast_obs::sample_many("core.batch.session_latency_ns", &self.lat_ns);
        }
    }
}

/// Batch VCG pricing engine for the node-weighted (paper Section III)
/// model.
///
/// Borrows the topology for its lifetime — declared costs are baked into
/// the graph, so a cached destination table can never go stale. Create a
/// new engine after any topology or cost change.
///
/// ```
/// use truthcast_core::batch::{PaymentEngine, SessionQuery};
/// use truthcast_graph::{Cost, NodeId, NodeWeightedGraph};
///
/// let g = NodeWeightedGraph::from_pairs_units(
///     &[(0, 1), (1, 3), (0, 2), (2, 3)],
///     &[0, 5, 7, 0],
/// );
/// let mut engine = PaymentEngine::new(&g);
/// let priced = engine.price_batch(&[
///     SessionQuery::new(NodeId(0), NodeId(3)),
///     SessionQuery::new(NodeId(1), NodeId(3)),
/// ]);
/// assert_eq!(
///     priced[0].as_ref().unwrap().payment_to(NodeId(1)),
///     Cost::from_units(7),
/// );
/// ```
pub struct PaymentEngine<'g> {
    g: &'g NodeWeightedGraph,
    threads: usize,
    /// Destination-rooted `R'` tables, shared by every session to the
    /// same destination.
    target_tables: BTreeMap<NodeId, NodeDistanceTable>,
}

impl<'g> PaymentEngine<'g> {
    /// An engine over `g` using [`default_threads`] workers.
    pub fn new(g: &'g NodeWeightedGraph) -> PaymentEngine<'g> {
        PaymentEngine::with_threads(g, default_threads())
    }

    /// An engine over `g` using exactly `threads` workers (clamped to at
    /// least 1). The thread count never affects the returned payments —
    /// only wall-clock time.
    pub fn with_threads(g: &'g NodeWeightedGraph, threads: usize) -> PaymentEngine<'g> {
        PaymentEngine {
            g,
            threads: threads.max(1),
            target_tables: BTreeMap::new(),
        }
    }

    /// The worker count this engine shards batches across.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of distinct destinations with a cached table.
    pub fn cached_targets(&self) -> usize {
        self.target_tables.len()
    }

    /// Ensures the destination-rooted table for `target` is cached,
    /// counting a hit or miss.
    fn warm(&mut self, target: NodeId) {
        if self.target_tables.contains_key(&target) {
            truthcast_obs::add("core.batch.target_cache_hits", 1);
        } else {
            truthcast_obs::add("core.batch.target_cache_misses", 1);
            let mut ws = DijkstraWorkspace::with_capacity(self.g.num_nodes());
            node_dijkstra_in(&mut ws, self.g, target, NodeDijkstraOptions::default());
            let (dist, parent) = ws.into_tables();
            self.target_tables.insert(
                target,
                NodeDistanceTable {
                    origin: target,
                    dist,
                    parent,
                },
            );
        }
    }

    /// Prices every session, sharded across the engine's workers.
    ///
    /// `out[i]` corresponds to `sessions[i]` — index order is preserved
    /// regardless of thread count — and is `None` exactly when the
    /// session's destination is unreachable. Each entry is bit-identical
    /// to `fast_payments(g, sessions[i].source, sessions[i].target)`.
    ///
    /// Panics if any session has `source == target`, like the
    /// per-session algorithms.
    pub fn price_batch(&mut self, sessions: &[SessionQuery]) -> Vec<Option<UnicastPricing>> {
        let _span = truthcast_obs::span("core.batch.price_batch");
        // Warm the destination cache sequentially so the parallel section
        // reads it through a shared borrow.
        for q in sessions {
            self.warm(q.target);
        }
        truthcast_obs::add("core.batch.sessions", sessions.len() as u64);
        let g = self.g;
        let tables = &self.target_tables;
        par_map_with(
            sessions.len(),
            self.threads,
            || WorkerScratch::new(g.num_nodes()),
            |scratch, i| {
                scratch.sessions += 1;
                let t0 = WorkerScratch::latency_clock();
                let q = sessions[i];
                let tj = &tables[&q.target];
                let priced = price_node_session(g, q, &tj.dist, scratch, "batch");
                scratch.record_latency(t0);
                priced
            },
        )
    }
}

/// Prices one node-weighted session inside a worker: the same pipeline as
/// [`crate::fast_payments`], with the source sweep running through the
/// worker's workspace and the destination-rooted `R'` distances supplied
/// by the caller (the engine cache, or the `all_sources` shared sweep).
/// `algo` tags the audit records.
pub(crate) fn price_node_session(
    g: &NodeWeightedGraph,
    q: SessionQuery,
    tj_dist: &[Cost],
    scratch: &mut WorkerScratch,
    algo: &'static str,
) -> Option<UnicastPricing> {
    assert_ne!(q.source, q.target, "unicast endpoints must differ");
    node_dijkstra_in(&mut scratch.ws, g, q.source, NodeDijkstraOptions::default());
    scratch
        .ws
        .export_into(&mut scratch.dist, &mut scratch.parent);
    let spt = Spt::from_parents(q.source, &scratch.parent);
    let lv = compute_levels(&spt, q.target)?;
    let lcp_cost = scratch.dist[q.target.index()].saturating_sub(g.cost(q.target));
    let s = lv.hops();
    if s == 1 {
        return Some(UnicastPricing {
            path: lv.path,
            lcp_cost,
            payments: vec![],
        });
    }
    let replacements = replacement_costs(g, &scratch.dist, tj_dist, &lv);
    let payments: Vec<(NodeId, Cost)> = lv.path[1..s]
        .iter()
        .zip(&replacements)
        .map(|(&r, &repl)| (r, vcg_payment_selected(lcp_cost, repl, g.cost(r))))
        .collect();
    audit_unicast(
        algo,
        q.source,
        q.target,
        lcp_cost,
        payments
            .iter()
            .zip(&replacements)
            .map(|(&(r, p), &repl)| (r, repl, g.cost(r), p)),
    );
    Some(UnicastPricing {
        path: lv.path,
        lcp_cost,
        payments,
    })
}

/// Prices one symmetric link-cost session inside a worker: the same
/// pipeline as [`crate::fast_symmetric_payments`] minus the per-call
/// symmetry check, which the caller (the `all_sources` link fallback)
/// has already made. `algo` tags the audit records.
pub(crate) fn price_link_session(
    g: &LinkWeightedDigraph,
    q: SessionQuery,
    tj_dist: &[Cost],
    scratch: &mut WorkerScratch,
    algo: &'static str,
) -> Option<UnicastPricing> {
    assert_ne!(q.source, q.target, "unicast endpoints must differ");
    dijkstra_in(
        &mut scratch.ws,
        g,
        q.source,
        Direction::Forward,
        DijkstraOptions::default(),
    );
    scratch
        .ws
        .export_into(&mut scratch.dist, &mut scratch.parent);
    let spt = Spt::from_parents(q.source, &scratch.parent);
    let lv = compute_levels(&spt, q.target)?;
    let lcp_cost = scratch.dist[q.target.index()];
    let s = lv.hops();
    if s == 1 {
        return Some(UnicastPricing {
            path: lv.path,
            lcp_cost,
            payments: vec![],
        });
    }
    let replacements = edge_weighted_replacement_costs(g, &scratch.dist, tj_dist, &lv);
    let payments: Vec<(NodeId, Cost)> = (1..s)
        .map(|l| {
            let relay = lv.path[l];
            let used_arc = g.arc_cost(relay, lv.path[l + 1]);
            let delta = replacements[l - 1].saturating_sub(lcp_cost);
            (relay, used_arc.saturating_add(delta))
        })
        .collect();
    audit_unicast(
        algo,
        q.source,
        q.target,
        lcp_cost,
        payments
            .iter()
            .enumerate()
            .map(|(k, &(r, p))| (r, replacements[k], g.arc_cost(r, lv.path[k + 2]), p)),
    );
    Some(UnicastPricing {
        path: lv.path,
        lcp_cost,
        payments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast::fast_payments;

    fn diamond() -> NodeWeightedGraph {
        NodeWeightedGraph::from_pairs_units(&[(0, 1), (1, 3), (0, 2), (2, 3)], &[0, 5, 7, 0])
    }

    #[test]
    fn batch_matches_per_session() {
        let g = diamond();
        let sessions = [
            SessionQuery::new(NodeId(0), NodeId(3)),
            SessionQuery::new(NodeId(1), NodeId(3)),
            SessionQuery::new(NodeId(2), NodeId(3)),
        ];
        for threads in [1, 2, 7] {
            let mut engine = PaymentEngine::with_threads(&g, threads);
            let priced = engine.price_batch(&sessions);
            for (q, got) in sessions.iter().zip(&priced) {
                assert_eq!(*got, fast_payments(&g, q.source, q.target));
            }
            // One destination → one cached table, shared by all sessions.
            assert_eq!(engine.cached_targets(), 1);
        }
    }

    #[test]
    fn unreachable_target_is_none() {
        let g = NodeWeightedGraph::from_pairs_units(&[(0, 1)], &[0, 0, 0]);
        let mut engine = PaymentEngine::new(&g);
        let priced = engine.price_batch(&[SessionQuery::new(NodeId(0), NodeId(2))]);
        assert_eq!(priced, vec![None]);
    }
}
