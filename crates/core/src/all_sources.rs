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
//!    The run's values are kept as one row per relay, in slice order: a
//!    source reads its replacement cost for relay `x` out of `x`'s row at
//!    its slice offset ([`SubtreeIntervals::slice_offset`]), the same
//!    read [`crate::delta::IncrementalEngine`] does on its cached rows.
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
//! simulation) mirrors [`crate::fast_symmetric_payments`] the same way:
//! every step above is written once, over the crate-private
//! `DetourModel` trait that carries what the two models do differently.

use truthcast_graph::dijkstra::{dijkstra_in, DijkstraOptions, Direction};
use truthcast_graph::heap::IndexedHeap;
use truthcast_graph::node_dijkstra::{node_dijkstra_in, NodeDijkstraOptions};
use truthcast_graph::workspace::DijkstraWorkspace;
use truthcast_graph::{
    Cost, LinkWeightedDigraph, NodeId, NodeWeightedGraph, Spt, SubtreeIntervals,
};
use truthcast_mechanism::vcg::vcg_payment_selected;
use truthcast_rt::{default_threads, par_map_with};

use crate::batch::{price_session, SessionQuery, WorkerScratch};
use crate::fast::replacement_costs;
use crate::fast_symmetric::{edge_weighted_replacement_costs, is_symmetric};
use crate::levels::PathLevels;
use crate::pricing::UnicastPricing;
use crate::trace::audit_unicast;

/// Everything the two cost models do differently: the sweep, the
/// seeding/relaxation arithmetic of the detour runs, the per-session
/// replacement kernel, the declared cost `d_k` in the payment, and the
/// audit tag. The crossing-edge machinery, the source assembly, the
/// fallback fan-out and the per-session pipeline are written once over
/// this trait.
pub(crate) trait DetourModel: Sync {
    /// Audit tag of the all-to-AP records priced under this model.
    const AUDIT_TAG: &'static str;
    fn num_nodes(&self) -> usize;
    /// The model's single-source sweep from `root` into `ws`.
    fn sweep(&self, ws: &mut DijkstraWorkspace, root: NodeId);
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
    /// One session's replacement costs `‖P_{-v_l}‖` for `l = 1 … s-1`,
    /// from the source-rooted table `l_dist` and the target-rooted
    /// table `r_dist` (Algorithm 1).
    fn replacements(&self, l_dist: &[Cost], r_dist: &[Cost], lv: &PathLevels) -> Vec<Cost>;
    /// The relay `path[l]`'s declared cost `d_k`: its node cost, or the
    /// cost of the arc it forwards on.
    fn declared(&self, path: &[NodeId], l: usize) -> Cost;
}

impl DetourModel for NodeWeightedGraph {
    const AUDIT_TAG: &'static str = "all_sources";
    fn num_nodes(&self) -> usize {
        self.num_nodes()
    }
    fn sweep(&self, ws: &mut DijkstraWorkspace, root: NodeId) {
        node_dijkstra_in(ws, self, root, NodeDijkstraOptions::default());
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
    fn replacements(&self, l_dist: &[Cost], r_dist: &[Cost], lv: &PathLevels) -> Vec<Cost> {
        replacement_costs(self, l_dist, r_dist, lv)
    }
    #[inline]
    fn declared(&self, path: &[NodeId], l: usize) -> Cost {
        self.cost(path[l])
    }
}

impl DetourModel for LinkWeightedDigraph {
    const AUDIT_TAG: &'static str = "all_sources_sym";
    fn num_nodes(&self) -> usize {
        self.num_nodes()
    }
    fn sweep(&self, ws: &mut DijkstraWorkspace, root: NodeId) {
        dijkstra_in(
            ws,
            self,
            root,
            Direction::Forward,
            DijkstraOptions::default(),
        );
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
    fn replacements(&self, l_dist: &[Cost], r_dist: &[Cost], lv: &PathLevels) -> Vec<Cost> {
        edge_weighted_replacement_costs(self, l_dist, r_dist, lv)
    }
    #[inline]
    fn declared(&self, path: &[NodeId], l: usize) -> Cost {
        self.arc_cost(path[l], path[l + 1])
    }
}

/// The paper's payment `p^k = ‖P_{-v_k}‖ − ‖P‖ + d_k` for every relay
/// `path[l]`, `l = 1 … s-1`, given its replacement cost `repl(l)`; emits
/// one audit record per relay under `algo`. Both cost models pay
/// through here; they differ only in [`DetourModel::declared`].
pub(crate) fn pay_relays<M: DetourModel>(
    m: &M,
    algo: &'static str,
    path: &[NodeId],
    lcp_cost: Cost,
    repl: impl Fn(usize) -> Cost,
) -> Vec<(NodeId, Cost)> {
    let s = path.len() - 1;
    let payments: Vec<(NodeId, Cost)> = (1..s)
        .map(|l| {
            let p = vcg_payment_selected(lcp_cost, repl(l), m.declared(path, l));
            (path[l], p)
        })
        .collect();
    audit_unicast(
        algo,
        path[0],
        path[s],
        lcp_cost,
        (1..s).map(|l| (path[l], repl(l), m.declared(path, l), payments[l - 1].1)),
    );
    payments
}

/// Prices the in-tree, non-fallback source `v` off the AP-rooted tree:
/// its LCP is the tree path, and relay `r`'s replacement cost is `v`'s
/// entry in `r`'s cached detour row, read by slice offset.
pub(crate) fn price_tree_source<M: DetourModel>(
    m: &M,
    dist: &[Cost],
    parent: &[Option<NodeId>],
    iv: &SubtreeIntervals,
    rows: &[Vec<Cost>],
    v: NodeId,
) -> UnicastPricing {
    let path = tree_path(parent, v);
    let lcp_cost = m.lcp_at(v, dist);
    let payments = pay_relays(m, M::AUDIT_TAG, &path, lcp_cost, |l| {
        let r = path[l];
        let off = iv.slice_offset(r, v).expect("path relay is an ancestor");
        rows[r.index()][off - 1]
    });
    UnicastPricing {
        path,
        lcp_cost,
        payments,
    }
}

/// Re-prices the tie-ambiguous `sources` through the per-session
/// pipeline against the AP-rooted table `dist`, sharded across
/// `threads` workers, and writes each result into `out`.
pub(crate) fn price_fallbacks<M: DetourModel>(
    m: &M,
    ap: NodeId,
    dist: &[Cost],
    sources: &[NodeId],
    threads: usize,
    out: &mut [Option<UnicastPricing>],
) {
    let priced = par_map_with(
        sources.len(),
        threads,
        || WorkerScratch::new(m.num_nodes()),
        |sc, i| {
            let t0 = WorkerScratch::latency_clock();
            let q = SessionQuery::new(sources[i], ap);
            let priced = price_session(m, q, dist, sc, M::AUDIT_TAG);
            sc.record_latency(t0);
            priced
        },
    );
    for (&v, p) in sources.iter().zip(priced) {
        out[v.index()] = p;
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

/// Per-worker scratch for the restricted runs: a lazily-reset value
/// array plus a binary indexed heap (the seeds arrive unsorted, and the
/// runs are tiny — the radix queue's monotone advantage is in the full
/// sweeps, mirroring Algorithm 1's level-set runs). The `via` array is
/// only maintained by a `VIA` [`detour_run`]; every run writes each
/// member's entry before reading it, so no cross-run reset is needed.
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
/// `F(y) = ‖P_{-x}(y, ap)‖` for every member, in slice order, plus the
/// crossing-arc scan and pop counts. With `VIA` it also returns the
/// support forest: `vias[i]` is the slice member the `i`-th member's
/// final value relaxed through, `ESC_TAG | w` when its best escape (to
/// `w`) seeded it directly, or [`ESC_VIA`] when it is unreachable. The
/// forest lets the delta engine re-certify cached rows member-by-member
/// across epochs; without `VIA` the returned forest is empty.
pub(crate) fn detour_run<M: DetourModel, const VIA: bool>(
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

/// Per-relay detour rows in slice order: `rows[x][i]` is
/// `F(y) = ‖P_{-x}(y, ap)‖` for the `i`-th member `y` of
/// `subtree(x)[1..]`, filled only for live relays (non-leaf, not
/// fallback-marked); a source reads its entry by slice offset.
struct RelayRows {
    rows: Vec<Vec<Cost>>,
    runs: u64,
    scans: u64,
    pops: u64,
}

fn subtree_replacements<M: DetourModel>(
    m: &M,
    dist: &[Cost],
    shared: &SharedSweep,
    threads: usize,
) -> RelayRows {
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
        |sc, i| detour_run::<M, false>(m, dist, iv, xs[i], sc),
    );

    let mut rows: Vec<Vec<Cost>> = vec![Vec::new(); n];
    let mut scans = 0u64;
    let mut pops = 0u64;
    for (&x, (vals, _, s, p)) in xs.iter().zip(results) {
        scans += s;
        pops += p;
        rows[x.index()] = vals;
    }
    RelayRows {
        rows,
        runs: xs.len() as u64,
        scans,
        pops,
    }
}

/// Walks the tree path `v → … → ap` (source first).
fn tree_path(parent: &[Option<NodeId>], v: NodeId) -> Vec<NodeId> {
    let mut path = vec![v];
    let mut cur = v;
    while let Some(p) = parent[cur.index()] {
        path.push(p);
        cur = p;
        debug_assert!(path.len() <= parent.len(), "parent cycle");
    }
    path
}

fn flush_counters(shared: &SharedSweep, repl: &RelayRows, sources: u64, fallbacks: u64) {
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
        self.price(g, ap)
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
        self.price(g, ap)
    }

    /// One sweep from `ap`, then the shared pipeline of the module docs:
    /// classify, per-relay detour rows, in-tree assembly, and the
    /// per-session fallback for tie-ambiguous sources.
    fn price<M: DetourModel>(&mut self, m: &M, ap: NodeId) -> Vec<Option<UnicastPricing>> {
        let n = m.num_nodes();
        {
            let _s = truthcast_obs::span("all_sources.spt_sweep");
            m.sweep(&mut self.ws, ap);
            self.ws.export_into(&mut self.dist, &mut self.parent);
        }
        let (dist, parent, threads) = (&self.dist, &self.parent, self.threads);
        let shared = {
            let _s = truthcast_obs::span("all_sources.classify");
            classify(m, dist, parent, ap)
        };
        let repl = {
            let _s = truthcast_obs::span("all_sources.subtree_runs");
            subtree_replacements(m, dist, &shared, threads)
        };

        let mut out: Vec<Option<UnicastPricing>> = vec![None; n];
        let mut fb_sources: Vec<NodeId> = Vec::new();
        let mut sources = 0u64;
        let assemble = truthcast_obs::span("all_sources.assemble");
        for v in (0..n as u32).map(NodeId) {
            if v == ap || !shared.iv.in_tree(v) {
                continue;
            }
            sources += 1;
            if shared.fallback[v.index()] {
                fb_sources.push(v);
                continue;
            }
            let priced = price_tree_source(m, dist, parent, &shared.iv, &repl.rows, v);
            out[v.index()] = Some(priced);
        }
        drop(assemble);
        {
            let _s = truthcast_obs::span("all_sources.fallback");
            price_fallbacks(m, ap, dist, &fb_sources, threads, &mut out);
        }
        flush_counters(&shared, &repl, sources, fb_sources.len() as u64);
        self.last_fallbacks = fb_sources.len();
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
