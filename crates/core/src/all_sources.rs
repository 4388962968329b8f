//! All-to-AP payment tables from **one** destination-rooted sweep.
//!
//! The paper's deployment pattern is all-to-AP: every node prices its
//! unicast toward a single access point. Running Algorithm 1 once per
//! source repeats `Θ(n)` full Dijkstra sweeps against the *same*
//! destination-rooted shortest-path tree. This module computes the
//! entire payment table —
//! `‖P(i, 0, d)‖` and every relay's replacement cost `‖P_{-v_k}(i, 0, d)‖`
//! for **all** (source, relay) pairs — from a single AP-rooted sweep plus
//! near-linear crossing-edge post-processing:
//!
//! 1. **Shared sweep.** One sweep from the AP gives the inclusive table
//!    `R'` and the AP-rooted SPT; the tree path `ap … i` reversed *is*
//!    source `i`'s LCP, and `‖P(i,0,d)‖ = R'(i) − c_i`.
//! 2. **Subtree interval labeling.** Euler-tour enter/exit stamps
//!    ([`truthcast_graph::SubtreeIntervals`]) make "is `w` below relay
//!    `x`?" an O(1) compare, and each relay's subtree a contiguous
//!    preorder slice.
//! 3. **Per-relay crossing-edge scan.** Removing a relay `x` cuts off
//!    exactly `S = subtree(x) \ {x}`. For every source `y ∈ S` *at once*,
//!    one restricted Dijkstra over the slice `S` computes
//!    `F(y) = ‖P_{-x}(y, 0, d)‖`: each `y` is seeded with its best
//!    *escape* over crossing arcs `(y, w)`, `w ∉ subtree(x)` (the suffix
//!    cost from `w` is exactly the unconstrained `R'(w)`, because `w`'s
//!    own tree path avoids `x`), and relaxation steps stay inside `S`.
//!    Every arc out of `S` is scanned once per ancestor relay, so the
//!    total work is `O(Σ_x (m_x + n_x log n_x))` — proportional to the
//!    *output* table (`Σ_x n_x = Σ_i depth(i)`), not to `n` full sweeps.
//! 4. **Exact fallback.** The replacement *values* above are exact graph
//!    minima — tie-independent. Only the reported `path` vector is
//!    tie-sensitive: `fast_payments` breaks shortest-path ties by its
//!    source-rooted sweep order, which the shared AP-rooted tree cannot
//!    reproduce. A node is *ambiguous* when ≥ 2 neighbors achieve its
//!    optimal continuation toward the AP; a source has a non-unique LCP
//!    **iff** some node on its tree path (AP excluded) is ambiguous, so
//!    ambiguity propagated down the tree exactly marks the sources whose
//!    path could differ. Those (rare, under generic costs) sources are
//!    re-priced through the per-session pipeline shared with
//!    [`crate::batch`] — reusing the shared sweep's `R'` table — making
//!    the whole output **bit-identical to per-source
//!    [`crate::fast_payments`]** at any thread count. The
//!    `core.all_sources.fallbacks` counter records the fallback rate.
//!
//! The per-relay runs are independent, so they shard across
//! `truthcast_rt::par` workers (each with its own lazily-reset scratch);
//! results are scattered in index order, keeping the output deterministic
//! and bit-identical at any thread count, matching the batch-engine
//! contract. A symmetric link-cost variant (paper Section III-F, first
//! simulation) mirrors [`crate::fast_symmetric_payments`] the same way.

use truthcast_graph::dijkstra::{dijkstra_in, DijkstraOptions, Direction};
use truthcast_graph::heap::IndexedHeap;
use truthcast_graph::node_dijkstra::NodeDijkstraOptions;
use truthcast_graph::workspace::DijkstraWorkspace;
use truthcast_graph::{
    Cost, LinkWeightedDigraph, NodeId, NodeWeightedGraph, Spt, SubtreeIntervals,
};
use truthcast_mechanism::vcg::vcg_payment_selected;
use truthcast_rt::{default_threads, par_map_with};

use crate::batch::{price_link_session, price_node_session, SessionQuery, WorkerScratch};
use crate::fast_symmetric::is_symmetric;
use crate::pricing::UnicastPricing;
use crate::trace::audit_unicast;

/// The two cost models share every phase except seeding/relaxation
/// arithmetic and the final payment formula; this trait captures the
/// differences so the crossing-edge machinery is written once.
pub(crate) trait DetourModel: Sync {
    fn num_nodes(&self) -> usize;
    /// Visits every out-neighbor `w` of `y` with the arc's model cost
    /// (the neighbor's node cost, or the arc weight).
    fn arcs_from<F: FnMut(NodeId, Cost)>(&self, y: NodeId, f: F);
    /// Cost of continuing toward the AP through neighbor `w`, given the
    /// arc cost and `w`'s inclusive table value `R'(w)`.
    fn onward(&self, arc: Cost, dist_w: Cost) -> Cost;
    /// Cost added when a detour steps *back into* `y` from a neighbor
    /// reached via the arc `y → neighbor` with cost `arc`.
    fn reverse_step(&self, y: NodeId, arc: Cost) -> Cost;
    /// `‖P(v, ap)‖` read off the inclusive table.
    fn lcp_at(&self, v: NodeId, dist: &[Cost]) -> Cost;
}

impl DetourModel for NodeWeightedGraph {
    fn num_nodes(&self) -> usize {
        self.num_nodes()
    }
    #[inline]
    fn arcs_from<F: FnMut(NodeId, Cost)>(&self, y: NodeId, mut f: F) {
        for &w in self.neighbors(y) {
            f(w, self.cost(w));
        }
    }
    #[inline]
    fn onward(&self, _arc: Cost, dist_w: Cost) -> Cost {
        // R'(w) already counts c_w (and is 0 at the AP itself).
        dist_w
    }
    #[inline]
    fn reverse_step(&self, y: NodeId, _arc: Cost) -> Cost {
        self.cost(y)
    }
    #[inline]
    fn lcp_at(&self, v: NodeId, dist: &[Cost]) -> Cost {
        dist[v.index()].saturating_sub(self.cost(v))
    }
}

impl DetourModel for LinkWeightedDigraph {
    fn num_nodes(&self) -> usize {
        self.num_nodes()
    }
    #[inline]
    fn arcs_from<F: FnMut(NodeId, Cost)>(&self, y: NodeId, mut f: F) {
        for a in self.out_arcs(y) {
            f(a.head, a.weight);
        }
    }
    #[inline]
    fn onward(&self, arc: Cost, dist_w: Cost) -> Cost {
        arc.saturating_add(dist_w)
    }
    #[inline]
    fn reverse_step(&self, _y: NodeId, arc: Cost) -> Cost {
        // Symmetric model: the arc back into `y` costs the same.
        arc
    }
    #[inline]
    fn lcp_at(&self, v: NodeId, dist: &[Cost]) -> Cost {
        dist[v.index()]
    }
}

/// Shared-sweep structure: interval labels plus the tie-ambiguity marks.
pub(crate) struct SharedSweep {
    pub(crate) iv: SubtreeIntervals,
    /// `fallback[v]`: some node on `v`'s tree path (AP excluded) has ≥ 2
    /// optimal continuations — `v`'s LCP is not unique, so its reported
    /// path must come from the per-source pipeline.
    pub(crate) fallback: Vec<bool>,
    pub(crate) ambiguous_nodes: u64,
}

pub(crate) fn classify<M: DetourModel>(
    m: &M,
    dist: &[Cost],
    parent: &[Option<NodeId>],
    ap: NodeId,
) -> SharedSweep {
    let spt = Spt::from_parents(ap, parent);
    let iv = spt.intervals();
    let mut fallback = vec![false; m.num_nodes()];
    let mut ambiguous_nodes = 0u64;
    for &v in iv.order() {
        if v == ap {
            continue;
        }
        let lcp_v = m.lcp_at(v, dist);
        let mut tight = 0u32;
        m.arcs_from(v, |w, arc| {
            if m.onward(arc, dist[w.index()]) == lcp_v {
                tight += 1;
            }
        });
        debug_assert!(tight >= 1, "tree parent must be a tight continuation");
        let ambiguous = tight >= 2;
        ambiguous_nodes += ambiguous as u64;
        let from_above = parent[v.index()].is_some_and(|p| fallback[p.index()]);
        fallback[v.index()] = ambiguous || from_above;
    }
    SharedSweep {
        iv,
        fallback,
        ambiguous_nodes,
    }
}

/// Per-source replacement-cost rows: `per_source[i][l-1]` is
/// `‖P_{-r_l}(i, ap)‖` for the `l`-th node on `i`'s LCP (`l = 1 … s-1`),
/// filled only for non-fallback in-tree sources.
struct ReplacementTable {
    per_source: Vec<Vec<Cost>>,
    runs: u64,
    scans: u64,
    pops: u64,
}

/// Per-worker scratch for the restricted runs: a lazily-reset value
/// array plus a binary indexed heap (the seeds arrive unsorted, and the
/// runs are tiny — the radix queue's monotone advantage is in the full
/// sweeps, mirroring Algorithm 1's level-set runs). The `via` array is
/// only maintained by [`detour_run_via`]; every run writes each member's
/// entry before reading it, so no cross-run reset is needed.
pub(crate) struct DetourScratch {
    pub(crate) dval: Vec<Cost>,
    pub(crate) heap: IndexedHeap<Cost>,
    pub(crate) via: Vec<u32>,
}

/// Tag bit of a `via` entry naming an escape: `ESC_TAG | w` means the
/// member's value is supported directly by its escape arc to `w`, not
/// by another slice member (node indices stay below `2^31`).
pub(crate) const ESC_TAG: u32 = 1 << 31;

/// Sentinel `via` entry: no support is known — the member is
/// unreachable without the relay, or its escape target departed in a
/// resize.
pub(crate) const ESC_VIA: u32 = u32::MAX;

impl DetourScratch {
    pub(crate) fn new(n: usize) -> DetourScratch {
        DetourScratch {
            dval: vec![Cost::INF; n],
            heap: IndexedHeap::new(n),
            via: vec![ESC_VIA; n],
        }
    }
}

/// One restricted Dijkstra over `subtree(x) \ {x}`: returns
/// `F(y) = ‖P_{-x}(y, ap)‖` for every member, in slice order.
pub(crate) fn detour_run<M: DetourModel>(
    m: &M,
    dist: &[Cost],
    iv: &SubtreeIntervals,
    x: NodeId,
    sc: &mut DetourScratch,
) -> (Vec<Cost>, u64, u64) {
    let (vals, _, scans, pops) = detour_run_impl::<M, false>(m, dist, iv, x, sc);
    (vals, scans, pops)
}

/// [`detour_run`] plus the support forest: `vias[i]` is the slice member
/// the `i`-th member's final value relaxed through, `ESC_TAG | w` when
/// its best escape (to `w`) seeded it directly, or [`ESC_VIA`] when it
/// is unreachable. The forest lets the delta engine re-certify cached
/// rows member-by-member across epochs.
pub(crate) fn detour_run_via<M: DetourModel>(
    m: &M,
    dist: &[Cost],
    iv: &SubtreeIntervals,
    x: NodeId,
    sc: &mut DetourScratch,
) -> (Vec<Cost>, Vec<u32>, u64, u64) {
    detour_run_impl::<M, true>(m, dist, iv, x, sc)
}

fn detour_run_impl<M: DetourModel, const VIA: bool>(
    m: &M,
    dist: &[Cost],
    iv: &SubtreeIntervals,
    x: NodeId,
    sc: &mut DetourScratch,
) -> (Vec<Cost>, Vec<u32>, u64, u64) {
    let members = &iv.subtree(x)[1..];
    let DetourScratch { dval, heap, via } = sc;
    let mut scans = 0u64;
    let mut pops = 0u64;
    heap.clear();
    // Seed every member with its best escape over crossing arcs: the
    // first step that leaves subtree(x) lands at a node whose own tree
    // path avoids x, so the optimal suffix is the unconstrained R'.
    for &y in members {
        let (mut esc, mut target) = (Cost::INF, ESC_VIA);
        m.arcs_from(y, |w, arc| {
            scans += 1;
            if !iv.is_ancestor(x, w) {
                let c = m.onward(arc, dist[w.index()]);
                if c < esc {
                    (esc, target) = (c, ESC_TAG | w.0);
                }
            }
        });
        dval[y.index()] = esc;
        if VIA {
            via[y.index()] = target;
        }
        if esc.is_finite() {
            heap.push(y.0, esc);
        }
    }
    // Relax strictly inside the subtree slice; arcs to x itself are
    // excluded (x is removed), arcs leaving the slice were consumed as
    // escapes above.
    while let Some((yy, fy)) = heap.pop_min() {
        pops += 1;
        let y = NodeId(yy);
        if fy > dval[y.index()] {
            continue;
        }
        m.arcs_from(y, |z, arc| {
            if iv.is_strict_descendant(z, x) {
                let cand = fy.saturating_add(m.reverse_step(y, arc));
                if cand < dval[z.index()] {
                    dval[z.index()] = cand;
                    if VIA {
                        via[z.index()] = yy;
                    }
                    heap.push_or_update(z.0, cand);
                }
            }
        });
    }
    let vals: Vec<Cost> = members.iter().map(|&y| dval[y.index()]).collect();
    let vias: Vec<u32> = if VIA {
        members.iter().map(|&y| via[y.index()]).collect()
    } else {
        Vec::new()
    };
    for &y in members {
        dval[y.index()] = Cost::INF;
    }
    (vals, vias, scans, pops)
}

fn subtree_replacements<M: DetourModel>(
    m: &M,
    dist: &[Cost],
    shared: &SharedSweep,
    threads: usize,
) -> ReplacementTable {
    let n = m.num_nodes();
    let iv = &shared.iv;
    // Every non-leaf tree node except the AP fails some source's session.
    // Relays already marked for fallback are skipped: the mark propagates
    // down, so every source below them re-prices per-session anyway.
    let xs: Vec<NodeId> = iv
        .order()
        .iter()
        .skip(1)
        .copied()
        .filter(|&x| iv.subtree(x).len() >= 2 && !shared.fallback[x.index()])
        .collect();
    let results = par_map_with(
        xs.len(),
        threads,
        || DetourScratch::new(n),
        |sc, i| detour_run(m, dist, iv, xs[i], sc),
    );

    let mut per_source: Vec<Vec<Cost>> = vec![Vec::new(); n];
    for &v in iv.order().iter().skip(1) {
        let d = iv.depth(v).expect("preorder node is in tree") as usize;
        if d >= 2 && !shared.fallback[v.index()] {
            per_source[v.index()] = vec![Cost::INF; d - 1];
        }
    }
    let mut scans = 0u64;
    let mut pops = 0u64;
    for (&x, (vals, s, p)) in xs.iter().zip(results) {
        scans += s;
        pops += p;
        let dx = iv.depth(x).expect("relay is in tree");
        for (&y, f) in iv.subtree(x)[1..].iter().zip(vals) {
            if shared.fallback[y.index()] {
                continue;
            }
            let dy = iv.depth(y).expect("subtree node is in tree");
            // y's path (source first) has x at index l = depth(y) - depth(x).
            per_source[y.index()][(dy - dx - 1) as usize] = f;
        }
    }
    ReplacementTable {
        per_source,
        runs: xs.len() as u64,
        scans,
        pops,
    }
}

/// Walks the tree path `v → … → ap` (source first).
pub(crate) fn tree_path(parent: &[Option<NodeId>], v: NodeId) -> Vec<NodeId> {
    let mut path = vec![v];
    let mut cur = v;
    while let Some(p) = parent[cur.index()] {
        path.push(p);
        cur = p;
        debug_assert!(path.len() <= parent.len(), "parent cycle");
    }
    path
}

fn flush_counters(shared: &SharedSweep, repl: &ReplacementTable, sources: u64, fallbacks: u64) {
    if truthcast_obs::enabled() {
        let c = truthcast_obs::collector();
        c.add("core.all_sources.passes", 1);
        c.add("core.all_sources.sources", sources);
        c.add("core.all_sources.fallbacks", fallbacks);
        c.add("core.all_sources.ambiguous_nodes", shared.ambiguous_nodes);
        c.add("core.all_sources.subtree_runs", repl.runs);
        c.add("core.all_sources.crossing_scans", repl.scans);
        c.add("core.all_sources.restricted_pops", repl.pops);
    }
}

/// Node-model all-sources pricing against a caller-supplied AP-rooted
/// table (as produced by `node_dijkstra(g, ap, default)`). Returns the
/// per-node pricings (index `ap` and unreachable sources hold `None`)
/// plus the fallback count.
pub(crate) fn node_all_sources_from_table(
    g: &NodeWeightedGraph,
    ap: NodeId,
    dist: &[Cost],
    parent: &[Option<NodeId>],
    threads: usize,
) -> (Vec<Option<UnicastPricing>>, usize) {
    let n = g.num_nodes();
    let shared = {
        let _s = truthcast_obs::span("all_sources.classify");
        classify(g, dist, parent, ap)
    };
    let repl = {
        let _s = truthcast_obs::span("all_sources.subtree_runs");
        subtree_replacements(g, dist, &shared, threads)
    };

    let mut out: Vec<Option<UnicastPricing>> = vec![None; n];
    let mut fb_sources: Vec<NodeId> = Vec::new();
    let mut sources = 0u64;
    let assemble = truthcast_obs::span("all_sources.assemble");
    for v in g.node_ids() {
        if v == ap || !shared.iv.in_tree(v) {
            continue;
        }
        sources += 1;
        if shared.fallback[v.index()] {
            fb_sources.push(v);
            continue;
        }
        let path = tree_path(parent, v);
        let s = path.len() - 1;
        let lcp_cost = g.lcp_at(v, dist);
        let row = &repl.per_source[v.index()];
        let payments: Vec<(NodeId, Cost)> = (1..s)
            .map(|l| {
                let r = path[l];
                (r, vcg_payment_selected(lcp_cost, row[l - 1], g.cost(r)))
            })
            .collect();
        audit_unicast(
            "all_sources",
            v,
            ap,
            lcp_cost,
            payments
                .iter()
                .zip(row)
                .map(|(&(r, p), &rc)| (r, rc, g.cost(r), p)),
        );
        out[v.index()] = Some(UnicastPricing {
            path,
            lcp_cost,
            payments,
        });
    }
    drop(assemble);
    {
        let _s = truthcast_obs::span("all_sources.fallback");
        let priced = par_map_with(
            fb_sources.len(),
            threads,
            || WorkerScratch::new(n),
            |sc, i| {
                let t0 = WorkerScratch::latency_clock();
                let priced = price_node_session(
                    g,
                    SessionQuery::new(fb_sources[i], ap),
                    dist,
                    sc,
                    "all_sources",
                );
                sc.record_latency(t0);
                priced
            },
        );
        for (&v, p) in fb_sources.iter().zip(priced) {
            out[v.index()] = p;
        }
    }
    flush_counters(&shared, &repl, sources, fb_sources.len() as u64);
    (out, fb_sources.len())
}

/// Symmetric link-model counterpart (the caller has already verified
/// symmetry; the table comes from a forward sweep rooted at `ap`).
pub(crate) fn link_all_sources_from_table(
    g: &LinkWeightedDigraph,
    ap: NodeId,
    dist: &[Cost],
    parent: &[Option<NodeId>],
    threads: usize,
) -> (Vec<Option<UnicastPricing>>, usize) {
    let n = g.num_nodes();
    let shared = {
        let _s = truthcast_obs::span("all_sources.classify");
        classify(g, dist, parent, ap)
    };
    let repl = {
        let _s = truthcast_obs::span("all_sources.subtree_runs");
        subtree_replacements(g, dist, &shared, threads)
    };

    let mut out: Vec<Option<UnicastPricing>> = vec![None; n];
    let mut fb_sources: Vec<NodeId> = Vec::new();
    let mut sources = 0u64;
    let assemble = truthcast_obs::span("all_sources.assemble");
    for v in g.node_ids() {
        if v == ap || !shared.iv.in_tree(v) {
            continue;
        }
        sources += 1;
        if shared.fallback[v.index()] {
            fb_sources.push(v);
            continue;
        }
        let path = tree_path(parent, v);
        let s = path.len() - 1;
        let lcp_cost = g.lcp_at(v, dist);
        let row = &repl.per_source[v.index()];
        let payments: Vec<(NodeId, Cost)> = (1..s)
            .map(|l| {
                let relay = path[l];
                let used_arc = g.arc_cost(relay, path[l + 1]);
                let delta = row[l - 1].saturating_sub(lcp_cost);
                (relay, used_arc.saturating_add(delta))
            })
            .collect();
        audit_unicast(
            "all_sources_sym",
            v,
            ap,
            lcp_cost,
            payments
                .iter()
                .enumerate()
                .map(|(k, &(r, p))| (r, row[k], g.arc_cost(r, path[k + 2]), p)),
        );
        out[v.index()] = Some(UnicastPricing {
            path,
            lcp_cost,
            payments,
        });
    }
    drop(assemble);
    {
        let _s = truthcast_obs::span("all_sources.fallback");
        let priced = par_map_with(
            fb_sources.len(),
            threads,
            || WorkerScratch::new(n),
            |sc, i| {
                let t0 = WorkerScratch::latency_clock();
                let priced = price_link_session(
                    g,
                    SessionQuery::new(fb_sources[i], ap),
                    dist,
                    sc,
                    "all_sources_sym",
                );
                sc.record_latency(t0);
                priced
            },
        );
        for (&v, p) in fb_sources.iter().zip(priced) {
            out[v.index()] = p;
        }
    }
    flush_counters(&shared, &repl, sources, fb_sources.len() as u64);
    (out, fb_sources.len())
}

/// Reusable all-to-AP pricing engine.
///
/// Unlike the batch engine this one borrows no topology, so one engine
/// can price many graphs: the sweep workspace and export buffers are
/// reused across calls.
///
/// ```
/// use truthcast_core::all_sources::AllSourcesEngine;
/// use truthcast_graph::{Cost, NodeId, NodeWeightedGraph};
///
/// let g = NodeWeightedGraph::from_pairs_units(
///     &[(0, 1), (1, 3), (0, 2), (2, 3)],
///     &[0, 5, 7, 0],
/// );
/// let mut engine = AllSourcesEngine::new();
/// let table = engine.price_all_sources(&g, NodeId(3));
/// assert!(table[3].is_none()); // the AP itself
/// assert_eq!(
///     table[0].as_ref().unwrap().payment_to(NodeId(1)),
///     Cost::from_units(7), // Vickrey: runner-up branch price
/// );
/// ```
pub struct AllSourcesEngine {
    threads: usize,
    ws: DijkstraWorkspace,
    dist: Vec<Cost>,
    parent: Vec<Option<NodeId>>,
    last_fallbacks: usize,
}

impl AllSourcesEngine {
    /// An engine using [`default_threads`] workers.
    pub fn new() -> AllSourcesEngine {
        AllSourcesEngine::with_threads(default_threads())
    }

    /// An engine using exactly `threads` workers (clamped to at least 1).
    /// The thread count never affects the returned payments.
    pub fn with_threads(threads: usize) -> AllSourcesEngine {
        AllSourcesEngine {
            threads: threads.max(1),
            ws: DijkstraWorkspace::new(),
            dist: Vec::new(),
            parent: Vec::new(),
            last_fallbacks: 0,
        }
    }

    /// The worker count the crossing-edge phase shards across.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// How many sources the most recent call re-priced through the
    /// per-session fallback pipeline (tie-ambiguous LCPs).
    pub fn last_fallbacks(&self) -> usize {
        self.last_fallbacks
    }

    /// The AP-rooted `(dist, parent)` tables exported by the most recent
    /// sweep — the differential-testing hook for
    /// [`crate::delta::IncrementalEngine`]'s bit-equality contract.
    pub fn tables(&self) -> (&[Cost], &[Option<NodeId>]) {
        (&self.dist, &self.parent)
    }

    /// Prices every node's unicast toward `ap` on the node-weighted
    /// model. `out[i]` is bit-identical to `fast_payments(g, i, ap)`;
    /// index `ap` and unreachable sources hold `None`.
    pub fn price_all_sources(
        &mut self,
        g: &NodeWeightedGraph,
        ap: NodeId,
    ) -> Vec<Option<UnicastPricing>> {
        let _span = truthcast_obs::span("core.all_sources");
        {
            let _s = truthcast_obs::span("all_sources.spt_sweep");
            truthcast_graph::node_dijkstra::node_dijkstra_in(
                &mut self.ws,
                g,
                ap,
                NodeDijkstraOptions::default(),
            );
            self.ws.export_into(&mut self.dist, &mut self.parent);
        }
        let (out, fallbacks) =
            node_all_sources_from_table(g, ap, &self.dist, &self.parent, self.threads);
        self.last_fallbacks = fallbacks;
        out
    }

    /// Prices every node's unicast toward `ap` on the symmetric link-cost
    /// model. `out[i]` is bit-identical to
    /// `fast_symmetric_payments(g, i, ap)` — all `None` on asymmetric
    /// graphs, matching the per-source algorithm.
    pub fn price_all_sources_symmetric(
        &mut self,
        g: &LinkWeightedDigraph,
        ap: NodeId,
    ) -> Vec<Option<UnicastPricing>> {
        let _span = truthcast_obs::span("core.all_sources");
        if !is_symmetric(g) {
            self.last_fallbacks = 0;
            return vec![None; g.num_nodes()];
        }
        {
            let _s = truthcast_obs::span("all_sources.spt_sweep");
            dijkstra_in(
                &mut self.ws,
                g,
                ap,
                Direction::Forward,
                DijkstraOptions::default(),
            );
            self.ws.export_into(&mut self.dist, &mut self.parent);
        }
        let (out, fallbacks) =
            link_all_sources_from_table(g, ap, &self.dist, &self.parent, self.threads);
        self.last_fallbacks = fallbacks;
        out
    }
}

impl Default for AllSourcesEngine {
    fn default() -> AllSourcesEngine {
        AllSourcesEngine::new()
    }
}

/// One-shot convenience: the paper's all-to-AP pattern priced from a
/// single shared sweep (see the module docs). Bit-identical to calling
/// [`crate::fast_payments`] once per source.
pub fn all_sources_payments(g: &NodeWeightedGraph, ap: NodeId) -> Vec<Option<UnicastPricing>> {
    AllSourcesEngine::new().price_all_sources(g, ap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast::fast_payments;
    use crate::fast_symmetric::fast_symmetric_payments;

    fn diamond() -> NodeWeightedGraph {
        NodeWeightedGraph::from_pairs_units(&[(0, 1), (1, 3), (0, 2), (2, 3)], &[0, 5, 7, 0])
    }

    #[test]
    fn matches_per_source_on_diamond() {
        let g = diamond();
        let table = all_sources_payments(&g, NodeId(3));
        for v in g.node_ids() {
            let expect = (v != NodeId(3))
                .then(|| fast_payments(&g, v, NodeId(3)))
                .flatten();
            assert_eq!(table[v.index()], expect, "source {v:?}");
        }
    }

    #[test]
    fn unreachable_and_ap_slots_are_none() {
        // 0-1 connected; 2 isolated. AP = 0.
        let g = NodeWeightedGraph::from_pairs_units(&[(0, 1)], &[0, 3, 1]);
        let table = all_sources_payments(&g, NodeId(0));
        assert!(table[0].is_none());
        assert!(table[1].is_some());
        assert!(table[2].is_none());
    }

    #[test]
    fn tie_heavy_graph_falls_back_and_still_matches() {
        // Equal costs everywhere: every multi-path source is ambiguous.
        let pairs = [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2), (3, 4), (2, 4)];
        let g = NodeWeightedGraph::from_pairs_units(&pairs, &[0, 2, 2, 2, 2]);
        let mut engine = AllSourcesEngine::with_threads(2);
        let table = engine.price_all_sources(&g, NodeId(0));
        assert!(engine.last_fallbacks() > 0, "ties must trigger fallback");
        for v in g.node_ids().skip(1) {
            assert_eq!(table[v.index()], fast_payments(&g, v, NodeId(0)));
        }
    }

    #[test]
    fn unique_costs_need_no_fallback() {
        let pairs = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3), (1, 4)];
        let g = NodeWeightedGraph::from_pairs_units(&pairs, &[0, 3, 17, 5, 11]);
        let mut engine = AllSourcesEngine::with_threads(1);
        let table = engine.price_all_sources(&g, NodeId(0));
        assert_eq!(engine.last_fallbacks(), 0);
        for v in g.node_ids().skip(1) {
            assert_eq!(table[v.index()], fast_payments(&g, v, NodeId(0)));
        }
    }

    #[test]
    fn monopoly_relay_priced_inf() {
        // Chain 0-1-2: relay 1 is a monopoly for source 2 (AP = 0).
        let g = NodeWeightedGraph::from_pairs_units(&[(0, 1), (1, 2)], &[0, 4, 0]);
        let table = all_sources_payments(&g, NodeId(0));
        let p = table[2].as_ref().unwrap();
        assert!(p.has_monopoly());
        assert_eq!(table[2], fast_payments(&g, NodeId(2), NodeId(0)));
    }

    #[test]
    fn symmetric_link_model_matches() {
        let arcs: Vec<(NodeId, NodeId, Cost)> = [
            (0u32, 1u32, 2u64),
            (1, 3, 2),
            (0, 2, 3),
            (2, 3, 4),
            (1, 2, 1),
        ]
        .iter()
        .flat_map(|&(u, v, w)| {
            [
                (NodeId(u), NodeId(v), Cost::from_units(w)),
                (NodeId(v), NodeId(u), Cost::from_units(w)),
            ]
        })
        .collect();
        let g = LinkWeightedDigraph::from_arcs(4, arcs);
        let mut engine = AllSourcesEngine::with_threads(2);
        let table = engine.price_all_sources_symmetric(&g, NodeId(3));
        for v in g.node_ids() {
            let expect = (v != NodeId(3))
                .then(|| fast_symmetric_payments(&g, v, NodeId(3)))
                .flatten();
            assert_eq!(table[v.index()], expect, "source {v:?}");
        }
    }

    #[test]
    fn asymmetric_link_model_is_all_none() {
        let g = LinkWeightedDigraph::from_arcs(2, [(NodeId(0), NodeId(1), Cost::from_units(1))]);
        let mut engine = AllSourcesEngine::new();
        assert_eq!(
            engine.price_all_sources_symmetric(&g, NodeId(1)),
            vec![None, None]
        );
    }
}
