//! Incremental all-to-AP re-pricing under mobility.
//!
//! [`crate::AllSourcesEngine`] re-prices an epoch from scratch. Under
//! mobility almost every epoch differs from its predecessor by a handful
//! of arcs and declared costs, so the steady-state cost should be
//! proportional to **what changed**, not to `n`. This module makes that asymptotic real while
//! keeping the one contract that matters for a VCG mechanism: every
//! epoch's output is **bit-identical to cold re-pricing** (and therefore
//! to per-source [`crate::fast_payments`]).
//!
//! The pipeline per epoch:
//!
//! 1. **Diff.** [`EpochStep::between`] merge-walks the sorted CSR
//!    neighbor lists of consecutive epoch graphs ([`GraphDelta::between`])
//!    into a typed delta: undirected arcs added/removed plus per-node
//!    declared-cost changes. The diff happens once per epoch, outside
//!    the engine: [`IncrementalEngine`] stores no graph, and consumes
//!    the step by reference, so k engines over the same graph stream
//!    (the payment service's AP shards) share one diff. An empty step is
//!    the zero-cost fast path.
//! 2. **Classify.** [`classify_delta`] maps each delta entry onto the
//!    previous epoch's [`SubtreeIntervals`]: a cost increase at `x` or a
//!    severed tree arc `(parent(v), v)` can only worsen the contiguous
//!    preorder slice `subtree(x)` (everything routing *through* the
//!    damage), which becomes **dirty**; cost decreases and new arcs can
//!    only improve and become **decrease seeds**. Removed non-tree arcs
//!    and any change to the AP's own cost are provably inert for the
//!    distance table. The dirty slices are maximal (nested roots fold
//!    into their ancestors).
//! 3. **Repair.** Dirty slices are invalidated and re-seeded from their
//!    crossing arcs (every intact neighbor's old distance is a certified
//!    upper bound, because a non-dirty node's entire tree path avoids all
//!    damage), decrease seeds are offered their best new candidate, and
//!    one restricted Dijkstra settles exactly the affected region. The
//!    result is the exact new distance table plus a valid tight parent
//!    tree; everything the run settled is recorded in a *touched* set.
//! 4. **Re-price.** The per-relay detour rows (`F(y) = ‖P_{-x}(y, ap)‖`,
//!    the same restricted runs as the cold engine) are cached across
//!    epochs together with their *support forest*: the member each value
//!    relaxed through, or the escape target `w` it left the subtree to.
//!    A row can only change if the delta reached the relay's subtree:
//!    its members' costs or arcs, a crossing arc, or a crossing arc's
//!    escape distance. All of those imply a touched node, a neighbor of
//!    one, or a changed-arc endpoint *inside the subtree*, so the relays
//!    that are new-tree ancestors of that seed set form a conservative
//!    re-run set — and each such row is **repaired**, not recomputed.
//!    A member keeps its cached value iff its own *certificate* still
//!    holds: it stayed in the slice, its cost did not change, and its
//!    support step survives (the supporting member is still in the slice
//!    and kept, or the escape target is still outside it at the same
//!    distance, over an arc that still exists). A certificate proves the
//!    kept value is still achievable; the only paths that can beat it
//!    start at an escape that got better — a target whose distance
//!    dropped, that left the subtree, or whose arc is new — and each of
//!    those arrives as a **per-row seed**, offered only to the rows that
//!    hold the member but not the target. Everything uncertified is
//!    re-seeded from its escapes and settled by one restricted Dijkstra
//!    bordered by the kept members (the header of the private
//!    `repair_row` gives the exactness argument). Sources are then
//!    selected individually: the subtrees of maximal touched nodes (their
//!    root path moved), the members whose `F` value a repaired row
//!    reports as changed, and the sources whose tie-ambiguity mark
//!    flipped. Everyone else's
//!    pricing is reused verbatim. A selected source is priced by the
//!    same in-tree assembly as the cold engine, reading each relay's
//!    cached row at the source's slice offset. Tie-ambiguous (fallback)
//!    sources are re-priced through the same per-session fan-out as the
//!    cold engine **every** epoch: their reported path hangs on global
//!    sweep tie-breaking, which any remote change may flip.
//! 5. **Damage threshold.** When the dirty region plus seed set exceeds
//!    `threshold × n` the engine falls back to the cold pipeline — repair
//!    has no asymptotic edge once most of the tree is damaged. The knob
//!    defaults to [`DEFAULT_DAMAGE_THRESHOLD`] and can be overridden per
//!    engine with [`IncrementalEngine::with_damage_threshold`].
//!
//! **Cross-resize repair.** A node join or leave changes the node count,
//! which used to force the cold pipeline ([`EpochOutcome::ColdResize`]).
//! With a caller-supplied [`NodeMap`] (stable identities across the
//! renumbering), the step is projected into the new index space
//! ([`GraphDelta::between_mapped`]) and [`IncrementalEngine::price_epoch`]
//! instead translates every piece of warm state into that space —
//! distance/parent tables, cached pricings, detour rows member-by-member
//! with their support forests, and the subtree intervals via
//! [`SubtreeIntervals::remap`] — then runs the *same* pipeline:
//! survivors whose tree parent died become severed slice roots (dirty),
//! newborn arcs arrive as decrease seeds, and survivors that neighbored
//! a departed node join the re-run seed set and lose every row
//! certificate. Preorder slices list siblings in index order, so a
//! renumbering that reverses two siblings reorders every ancestor slice
//! without changing the tree; those parents join the re-run seed set,
//! which re-keys their ancestors' cached rows by node identity. The
//! outcome is [`EpochOutcome::WarmResize`], under the same
//! damage-threshold contract.
//!
//! **Shared output.** Each epoch's table is handed out as an
//! `Arc<Vec<Option<UnicastPricing>>>` that is never mutated while anyone
//! else holds it. The engine keeps exactly one table, the `Arc` it last
//! returned: a [`EpochOutcome::Reused`] epoch returns that same `Arc` (no
//! copy at all), a repair epoch edits it through [`Arc::make_mut`]
//! (which copies once if a caller still holds the previous epoch's
//! table, and not at all otherwise), and a cold epoch starts a fresh
//! one. Callers that publish tables (the payment service) therefore
//! share unchanged tables instead of cloning them.
//!
//! Observability: `core.delta.{deltas,dirty_nodes,repaired_slices,
//! fallbacks,cold_resizes,warm_resizes,born,died,reuses,subtree_runs,
//! row_repairs,row_rebuilds,row_members_recomputed,row_seeds}` counters
//! — all registered at engine construction so quiet runs print explicit
//! zeros — plus
//! `core.delta.repair` and `core.delta.resize` spans (exported as
//! `span.core.delta.*_ns`). Audit records are
//! emitted for every source the epoch actually re-prices; reused sources
//! keep the records of the epoch that priced them (payments themselves
//! are always bit-identical to a cold run).
//!
//! Why bit-equality is achievable at all: the assembled output is a pure
//! function of the distance table. Fallback marks count *tight
//! continuations* over distances only; a non-fallback source's path is
//! forced (each hop has exactly one tight neighbor); and the detour rows
//! are exact graph minima, independent of how shortest-path ties were
//! broken into a particular parent tree. So the repair only has to
//! reproduce the exact distances plus *some* valid tight tree — not the
//! cold sweep's tie-breaking — and the differential battery in
//! `crates/core/tests/incremental_vs_cold.rs` holds it to that.

use std::sync::Arc;

use truthcast_graph::heap::IndexedHeap;
use truthcast_graph::workspace::DijkstraWorkspace;
use truthcast_graph::{Cost, NodeId, NodeMap, NodeWeightedGraph, SubtreeIntervals};
use truthcast_rt::{default_threads, par_map_with};

use crate::all_sources::{
    classify, detour_run, price_fallbacks, price_tree_source, DetourModel, DetourScratch,
    SharedSweep, ESC_TAG, ESC_VIA,
};
use crate::pricing::UnicastPricing;

/// Fraction of `n` the dirty region (plus seeds) may reach before
/// [`IncrementalEngine`] abandons repair for a cold sweep.
pub const DEFAULT_DAMAGE_THRESHOLD: f64 = 0.25;

/// A typed diff between two node-weighted epoch graphs over the same
/// node set. Arc pairs are stored once each, `(u, v)` with `u < v`, in
/// ascending order; cost changes are `(node, old, new)` in node order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GraphDelta {
    /// Undirected arcs present in the new graph only.
    pub edges_added: Vec<(NodeId, NodeId)>,
    /// Undirected arcs present in the old graph only.
    pub edges_removed: Vec<(NodeId, NodeId)>,
    /// Nodes whose declared cost changed: `(node, old, new)`.
    pub costs_changed: Vec<(NodeId, Cost, Cost)>,
}

impl GraphDelta {
    /// Diffs two epoch graphs, or `None` when the node sets differ — a
    /// join/leave event. Callers that know the identity mapping across
    /// the resize should use [`GraphDelta::between_mapped`] instead of
    /// re-pricing cold.
    pub fn between(old: &NodeWeightedGraph, new: &NodeWeightedGraph) -> Option<GraphDelta> {
        if old.num_nodes() != new.num_nodes() {
            return None;
        }
        let mut delta = GraphDelta::default();
        for v in old.node_ids() {
            let (co, cn) = (old.cost(v), new.cost(v));
            if co != cn {
                delta.costs_changed.push((v, co, cn));
            }
            // Sorted CSR neighbor lists: one merge walk per node, each
            // undirected arc recorded at its lower endpoint.
            let (a, b) = (old.neighbors(v), new.neighbors(v));
            let (mut i, mut j) = (0usize, 0usize);
            loop {
                match (a.get(i).copied(), b.get(j).copied()) {
                    (None, None) => break,
                    (Some(x), Some(y)) if x == y => {
                        i += 1;
                        j += 1;
                    }
                    (Some(x), Some(y)) if x < y => {
                        if v < x {
                            delta.edges_removed.push((v, x));
                        }
                        i += 1;
                    }
                    (Some(_), Some(y)) | (None, Some(y)) => {
                        if v < y {
                            delta.edges_added.push((v, y));
                        }
                        j += 1;
                    }
                    (Some(x), None) => {
                        if v < x {
                            delta.edges_removed.push((v, x));
                        }
                        i += 1;
                    }
                }
            }
        }
        Some(delta)
    }

    /// Diffs two epoch graphs across a resize, through the identity
    /// `map`. The returned delta lives entirely in the **new** index
    /// space:
    ///
    /// * survivor–survivor arcs and cost changes diff as usual (under
    ///   their new indices);
    /// * every newborn node's arcs land in `edges_added` — they become
    ///   decrease seeds, which is exactly how a node materializing at
    ///   infinity settles;
    /// * arcs to a departed node are *not* representable as removed
    ///   edges (one endpoint has no new index); the surviving endpoints
    ///   are reported in [`MappedDelta::dead_adjacent`] instead, and
    ///   departed tree parents surface as severed slice roots during
    ///   state remapping.
    ///
    /// # Panics
    /// If the map's endpoint lengths don't match the two graphs.
    pub fn between_mapped(
        old: &NodeWeightedGraph,
        new: &NodeWeightedGraph,
        map: &NodeMap,
    ) -> MappedDelta {
        assert_eq!(
            map.old_len(),
            old.num_nodes(),
            "map old_len must match the previous epoch graph"
        );
        assert_eq!(
            map.new_len(),
            new.num_nodes(),
            "map new_len must match the new epoch graph"
        );
        let mut delta = GraphDelta::default();
        for i in old.node_ids() {
            if let Some(j) = map.to_new(i) {
                let (co, cn) = (old.cost(i), new.cost(j));
                if co != cn {
                    delta.costs_changed.push((j, co, cn));
                }
            }
        }
        delta.costs_changed.sort_unstable_by_key(|&(v, _, _)| v);
        // Project the old survivor–survivor edges into the new space,
        // then one global merge walk against the new edge enumeration
        // (already ascending `(u, v)` with `u < v`).
        let mut dead_adjacent: Vec<NodeId> = Vec::new();
        let mut old_edges: Vec<(NodeId, NodeId)> = Vec::new();
        for (u, v) in old.adjacency().edges() {
            match (map.to_new(u), map.to_new(v)) {
                (Some(nu), Some(nv)) => {
                    old_edges.push(if nu < nv { (nu, nv) } else { (nv, nu) });
                }
                (Some(nu), None) => dead_adjacent.push(nu),
                (None, Some(nv)) => dead_adjacent.push(nv),
                (None, None) => {}
            }
        }
        old_edges.sort_unstable();
        let mut it = old_edges.into_iter().peekable();
        for e in new.adjacency().edges() {
            while let Some(&oe) = it.peek() {
                if oe < e {
                    delta.edges_removed.push(oe);
                    it.next();
                } else {
                    break;
                }
            }
            if it.peek() == Some(&e) {
                it.next();
            } else {
                delta.edges_added.push(e);
            }
        }
        delta.edges_removed.extend(it);
        dead_adjacent.sort_unstable();
        dead_adjacent.dedup();
        MappedDelta {
            delta,
            dead_adjacent,
            born: map.born_count(),
            died: map.died_count(),
        }
    }

    /// Total number of delta entries.
    pub fn len(&self) -> usize {
        self.edges_added.len() + self.edges_removed.len() + self.costs_changed.len()
    }

    /// Whether the two graphs were bit-identical.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A [`GraphDelta`] taken across a resize, expressed in the new index
/// space, plus the churn bookkeeping the repair pipeline needs. Produced
/// by [`GraphDelta::between_mapped`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MappedDelta {
    /// Survivor–survivor and newborn changes, new index space.
    pub delta: GraphDelta,
    /// Surviving nodes (new indices, ascending, deduped) that had an arc
    /// to a departed node in the old graph. Their escapes, support
    /// chains, and re-run seeding all potentially routed through the
    /// departed neighbor, so they join the relay re-run seed set and
    /// lose every detour-row certificate.
    pub dead_adjacent: Vec<NodeId>,
    /// Number of newborn nodes.
    pub born: usize,
    /// Number of departed nodes.
    pub died: usize,
}

/// One epoch transition, diffed once and consumed by any number of
/// [`IncrementalEngine`]s: the [`MappedDelta`] between two consecutive
/// epoch graphs plus the [`NodeMap`] it was taken through. The payment
/// service builds one step per epoch and hands it to all k AP shards,
/// so no engine stores a graph or diffs one.
#[derive(Clone, Debug)]
pub struct EpochStep {
    delta: MappedDelta,
    /// The map the delta was taken through; `None` for an identity map
    /// (same node set, same indices).
    map: Option<NodeMap>,
    old_len: usize,
    new_len: usize,
}

impl EpochStep {
    /// Diffs `old` against `new` through `map`. `None` or an identity map
    /// takes the merge walk of [`GraphDelta::between`]; any other map
    /// projects through [`GraphDelta::between_mapped`]. Returns `None`
    /// when no map is given and the node counts differ: without
    /// identities there is nothing to diff, and the engine re-prices
    /// cold ([`EpochOutcome::ColdResize`]).
    ///
    /// # Panics
    /// If the map's endpoint lengths don't match the two graphs.
    pub fn between(
        old: &NodeWeightedGraph,
        new: &NodeWeightedGraph,
        map: Option<&NodeMap>,
    ) -> Option<EpochStep> {
        let (old_len, new_len) = (old.num_nodes(), new.num_nodes());
        if let Some(m) = map {
            assert_eq!(
                (m.old_len(), m.new_len()),
                (old_len, new_len),
                "map lengths must match the two graphs"
            );
        }
        let (delta, map) = match map.filter(|m| !m.is_identity()) {
            Some(m) => (GraphDelta::between_mapped(old, new, m), Some(m.clone())),
            None => {
                let delta = GraphDelta::between(old, new)?;
                let delta = MappedDelta {
                    delta,
                    ..MappedDelta::default()
                };
                (delta, None)
            }
        };
        Some(EpochStep {
            delta,
            map,
            old_len,
            new_len,
        })
    }

    /// The diff, in the new index space.
    pub fn delta(&self) -> &GraphDelta {
        &self.delta.delta
    }

    /// Where previous-epoch node `v` lives in the new graph.
    fn to_new(&self, v: NodeId) -> Option<NodeId> {
        self.map.as_ref().map_or(Some(v), |m| m.to_new(v))
    }

    /// Whether the two graphs are bit-identical under the same indices:
    /// an engine consuming an empty step reuses its table unchanged.
    pub fn is_empty(&self) -> bool {
        self.map.is_none() && self.delta.delta.is_empty()
    }
}

/// The region of the previous epoch's SPT a delta can affect: dirty
/// preorder slices (distances may worsen) plus decrease seeds (distances
/// may only improve). Produced by [`classify_delta`].
#[derive(Clone, Debug)]
pub struct DirtyRegion {
    /// `dirty[v]`: `v` lies in a damaged subtree slice and its distance
    /// must be recomputed from scratch.
    pub dirty: Vec<bool>,
    /// Number of dirty nodes.
    pub dirty_count: usize,
    /// Number of *maximal* dirty preorder slices (nested slice roots fold
    /// into their ancestors).
    pub slices: usize,
    /// Nodes whose distance may improve but cannot worsen: cost-decreased
    /// nodes and endpoints of added arcs.
    pub decrease_seeds: Vec<NodeId>,
}

/// Maps a [`GraphDelta`] onto the previous epoch's subtree intervals.
///
/// Conservative by construction: every node whose distance or parent can
/// change is either dirty or reachable from a decrease seed through
/// strictly improving relaxations. Changes to the AP's own declared cost
/// are skipped outright — the AP-rooted table excludes the origin cost,
/// and `‖P(v, ap)‖ = R'(v) − c_v` never mentions `c_ap` either.
pub fn classify_delta(
    delta: &GraphDelta,
    iv: &SubtreeIntervals,
    parent: &[Option<NodeId>],
    ap: NodeId,
) -> DirtyRegion {
    classify_delta_severed(delta, &[], iv, parent, ap)
}

/// [`classify_delta`] with extra severed slice roots: survivors whose
/// tree parent departed across a resize. Their old root path no longer
/// exists, so their whole (remapped) subtree slice is dirty — exactly a
/// severed tree arc whose upper endpoint has no new index.
pub(crate) fn classify_delta_severed(
    delta: &GraphDelta,
    severed_roots: &[NodeId],
    iv: &SubtreeIntervals,
    parent: &[Option<NodeId>],
    ap: NodeId,
) -> DirtyRegion {
    let n = parent.len();
    let mut roots: Vec<NodeId> = severed_roots
        .iter()
        .copied()
        .filter(|&r| iv.in_tree(r))
        .collect();
    let mut decrease_seeds: Vec<NodeId> = Vec::new();
    for &(x, old, new) in &delta.costs_changed {
        if x == ap || !iv.in_tree(x) {
            // AP cost is inert; unreachable nodes stay at infinity no
            // matter what they declare.
            continue;
        }
        if new > old {
            roots.push(x);
        } else {
            decrease_seeds.push(x);
        }
    }
    for &(u, v) in &delta.edges_removed {
        // Only severed *tree* arcs can worsen a distance: any other
        // removed arc carried no shortest path in the old tree, and the
        // old tree remains a valid certificate without it.
        if parent[v.index()] == Some(u) {
            roots.push(v);
        } else if parent[u.index()] == Some(v) {
            roots.push(u);
        }
    }
    for &(u, v) in &delta.edges_added {
        decrease_seeds.push(u);
        decrease_seeds.push(v);
    }
    // Preorder-sort the slice roots so ancestors come first: a root whose
    // slice is already dirty is nested inside an earlier maximal slice.
    roots.sort_by_key(|&r| iv.enter(r));
    roots.dedup();
    let mut dirty = vec![false; n];
    let mut dirty_count = 0usize;
    let mut slices = 0usize;
    for &r in &roots {
        if dirty[r.index()] {
            continue;
        }
        slices += 1;
        let slice = iv.subtree(r);
        dirty_count += slice.len();
        for &y in slice {
            dirty[y.index()] = true;
        }
    }
    // Damage is measured in *distinct* nodes: drop duplicate seeds, seeds
    // already inside a dirty slice, and the AP (whose distance is pinned
    // at zero), so `dirty_count + decrease_seeds.len() ≤ n` and a damage
    // threshold of 1.0 can never trip the fallback.
    decrease_seeds.sort_by_key(|s| s.index());
    decrease_seeds.dedup();
    decrease_seeds.retain(|&s| s != ap && !dirty[s.index()]);
    DirtyRegion {
        dirty,
        dirty_count,
        slices,
        decrease_seeds,
    }
}

/// What [`IncrementalEngine::price_epoch`] did for the most recent epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EpochOutcome {
    /// First epoch, or the AP changed: full cold pipeline.
    Cold,
    /// The node count changed between epochs (join/leave churn): the
    /// delta machinery has no identity mapping across a resize, so the
    /// engine ran the full cold pipeline. Surfaced as its own variant —
    /// and counted under `core.delta.cold_resizes` — so long-lived
    /// callers (the service's per-shard epoch loop) can report churn
    /// epochs honestly instead of folding them into [`Cold`].
    ///
    /// [`Cold`]: EpochOutcome::Cold
    ColdResize {
        /// Node count of the previous epoch.
        from: usize,
        /// Node count of this epoch.
        to: usize,
    },
    /// Bit-identical graph: the cached table was returned unchanged.
    Reused,
    /// Delta repair ran and only the affected region was re-priced.
    Repaired {
        /// Nodes invalidated by the dirty subtree slices.
        dirty_nodes: usize,
        /// Maximal dirty preorder slices repaired.
        repaired_slices: usize,
        /// Sources whose pricing was recomputed this epoch.
        repriced_sources: usize,
    },
    /// The dirty region crossed the damage threshold: cold pipeline,
    /// counted under `core.delta.fallbacks`.
    Fallback {
        /// Nodes the classification had marked dirty.
        dirty_nodes: usize,
    },
    /// A join/leave epoch repaired warm through a [`NodeMap`]: surviving
    /// state was translated into the new index space and only the churn
    /// damage was re-priced. Counted under `core.delta.warm_resizes`
    /// (with `core.delta.{born,died}` tallying the churn volume).
    WarmResize {
        /// Nodes that joined this epoch.
        born: usize,
        /// Nodes that departed this epoch.
        died: usize,
        /// Sources whose pricing was recomputed this epoch.
        repaired: usize,
    },
}

/// Delta re-pricing engine: [`crate::AllSourcesEngine`]'s all-to-AP
/// output, amortized across mobility epochs (see the module docs for the
/// pipeline and the bit-equality argument).
///
/// ```
/// use truthcast_core::delta::{EpochOutcome, EpochStep, IncrementalEngine};
/// use truthcast_core::all_sources_payments;
/// use truthcast_graph::{NodeId, NodeWeightedGraph};
///
/// let pairs = [(0, 1), (1, 3), (0, 2), (2, 3)];
/// let e0 = NodeWeightedGraph::from_pairs_units(&pairs, &[0, 5, 7, 0]);
/// let e1 = NodeWeightedGraph::from_pairs_units(&pairs, &[0, 5, 4, 0]);
///
/// let mut engine = IncrementalEngine::new();
/// let ap = NodeId(3);
/// // No step: the first epoch prices cold.
/// assert_eq!(*engine.price_epoch(&e0, ap, None), all_sources_payments(&e0, ap));
/// assert_eq!(engine.last_outcome(), EpochOutcome::Cold);
/// // Node 2 re-declares: the step names the change, only its branch is
/// // repaired, same table as cold.
/// let step = EpochStep::between(&e0, &e1, None).expect("same node set");
/// assert_eq!(step.delta().len(), 1);
/// assert_eq!(*engine.price_epoch(&e1, ap, Some(&step)), all_sources_payments(&e1, ap));
/// assert!(matches!(engine.last_outcome(), EpochOutcome::Repaired { .. }));
/// ```
pub struct IncrementalEngine {
    threads: usize,
    damage_threshold: f64,
    ws: DijkstraWorkspace,
    heap: IndexedHeap<Cost>,
    heap_capacity: usize,
    dist: Vec<Cost>,
    parent: Vec<Option<NodeId>>,
    shared: Option<SharedSweep>,
    /// Per-relay detour rows in slice order (`subtree(x)[1..]`), cached
    /// across epochs; `row_stale[x]` marks rows that missed a recompute
    /// while their relay was fallback-marked, a leaf, or out of tree.
    rows: Vec<Vec<Cost>>,
    /// Support forest for each cached row ([`ESC_VIA`] = escape-seeded),
    /// aligned with `rows`; lets [`repair_row`] certify which cached
    /// values survived an epoch.
    row_via: Vec<Vec<u32>>,
    row_stale: Vec<bool>,
    /// The table most recently returned, handed out again unchanged by
    /// `Reused` epochs. Repair epochs edit it through `Arc::make_mut`,
    /// so a table a caller still holds is never written.
    published: Arc<Vec<Option<UnicastPricing>>>,
    /// Node count and AP of the epoch last priced: all the engine keeps
    /// of the previous graph. The next [`EpochStep`] carries the rest.
    prev: Option<(usize, NodeId)>,
    touched: Vec<bool>,
    /// Pre-repair snapshots of the distance and parent tables, taken at
    /// the top of every repair epoch: the row seeds compare against them
    /// to find distance drops and nodes whose root path moved.
    old_dist: Vec<Cost>,
    old_parent: Vec<Option<NodeId>>,
    last_outcome: EpochOutcome,
    last_fallback_sources: usize,
}

impl IncrementalEngine {
    /// An engine using [`default_threads`] workers.
    pub fn new() -> IncrementalEngine {
        IncrementalEngine::with_threads(default_threads())
    }

    /// An engine using exactly `threads` workers (clamped to at least 1).
    /// Thread count never affects the returned payments. (The repair
    /// queue is an indexed binary heap rather than the sweeps' radix
    /// heap: its seeds arrive unsorted.)
    ///
    /// Registers every `core.delta.*` counter with [`truthcast_obs`] so
    /// `summary_table` prints explicit zeros for events that never fired
    /// on a quiet run — a `fallbacks 0` line is evidence the repair path
    /// held; an absent one is evidence of nothing.
    pub fn with_threads(threads: usize) -> IncrementalEngine {
        for name in [
            "core.delta.deltas",
            "core.delta.reuses",
            "core.delta.dirty_nodes",
            "core.delta.repaired_slices",
            "core.delta.fallbacks",
            "core.delta.cold_resizes",
            "core.delta.warm_resizes",
            "core.delta.born",
            "core.delta.died",
            "core.delta.subtree_runs",
            "core.delta.row_repairs",
            "core.delta.row_rebuilds",
            "core.delta.row_members_recomputed",
            "core.delta.row_seeds",
        ] {
            truthcast_obs::register(name);
        }
        IncrementalEngine {
            threads: threads.max(1),
            damage_threshold: DEFAULT_DAMAGE_THRESHOLD,
            ws: DijkstraWorkspace::new(),
            heap: IndexedHeap::new(0),
            heap_capacity: 0,
            dist: Vec::new(),
            parent: Vec::new(),
            shared: None,
            rows: Vec::new(),
            row_via: Vec::new(),
            row_stale: Vec::new(),
            published: Arc::default(),
            prev: None,
            touched: Vec::new(),
            old_dist: Vec::new(),
            old_parent: Vec::new(),
            last_outcome: EpochOutcome::Cold,
            last_fallback_sources: 0,
        }
    }

    /// The worker count the detour and fallback phases shard across.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Overrides the damage threshold (default
    /// [`DEFAULT_DAMAGE_THRESHOLD`]): `0.0` falls back to a cold sweep on
    /// any non-empty delta, `1.0` always repairs. Values are clamped to
    /// `[0, 1]`.
    pub fn with_damage_threshold(mut self, threshold: f64) -> IncrementalEngine {
        self.damage_threshold = threshold.clamp(0.0, 1.0);
        self
    }

    /// What the most recent [`IncrementalEngine::price_epoch`] did.
    pub fn last_outcome(&self) -> EpochOutcome {
        self.last_outcome
    }

    /// How many sources the most recent epoch re-priced through the
    /// per-session fallback pipeline (tie-ambiguous LCPs).
    pub fn last_fallback_sources(&self) -> usize {
        self.last_fallback_sources
    }

    /// The current AP-rooted `(dist, parent)` tables. Distances are
    /// always bit-identical to a cold sweep; the parent tree is *a* valid
    /// tight tree (tie-breaking may differ from a cold sweep's — the
    /// assembled payments cannot tell the difference, see module docs).
    pub fn tables(&self) -> (&[Cost], &[Option<NodeId>]) {
        (&self.dist, &self.parent)
    }

    /// `touched[v]`: the most recent epoch re-settled `v`'s distance or
    /// parent (all-true after a cold pass). Every node whose table entry
    /// actually changed is touched — the conservativeness contract the
    /// `delta_props` property test pins down.
    pub fn last_touched(&self) -> &[bool] {
        &self.touched
    }

    /// Prices every node's unicast toward `ap` for the epoch graph `g`,
    /// repairing incrementally from the previous epoch when profitable.
    /// `out[i]` is bit-identical to [`crate::all_sources_payments`]
    /// (and so to [`crate::fast_payments`]); index `ap` and unreachable
    /// sources hold `None`.
    ///
    /// `step` is the transition from the graph this engine priced last
    /// to `g` ([`EpochStep::between`]); the engine stores no graph of
    /// its own, so one step can feed any number of engines. `None`
    /// re-prices cold: [`EpochOutcome::ColdResize`] if the node count
    /// changed under the same AP, [`EpochOutcome::Cold`] otherwise. An
    /// empty step is [`EpochOutcome::Reused`]; an identity step repairs
    /// ([`EpochOutcome::Repaired`]); a step through a non-identity
    /// [`NodeMap`] repairs across the join/leave
    /// ([`EpochOutcome::WarmResize`]). Either repair falls back cold past
    /// the damage threshold ([`EpochOutcome::Fallback`]). `ap` names the
    /// access point in `g`'s index space; the warm paths require the
    /// previous AP to map onto it, and re-price cold otherwise.
    ///
    /// The returned table is shared, never mutated while the caller
    /// holds it: a [`EpochOutcome::Reused`] epoch returns the previous
    /// epoch's `Arc` itself. A repair epoch returns the previous
    /// allocation edited in place if the caller dropped it, and a copy
    /// otherwise; a cold epoch returns a fresh table.
    ///
    /// # Panics
    /// If the step's node counts don't match `g` and the previous epoch.
    /// Both are checked before any state changes, so the engine is still
    /// warm for a correct retry.
    pub fn price_epoch(
        &mut self,
        g: &NodeWeightedGraph,
        ap: NodeId,
        step: Option<&EpochStep>,
    ) -> Arc<Vec<Option<UnicastPricing>>> {
        let n = g.num_nodes();
        if let Some(s) = step {
            assert_eq!(s.new_len, n, "step new_len must match the epoch graph");
            if let Some((pn, _)) = self.prev {
                assert_eq!(s.old_len, pn, "step old_len must match the previous epoch");
            }
        }
        let _span = truthcast_obs::span("core.delta.price_epoch");
        // Taken, not read: a panic below leaves the engine cold.
        let prev = self.prev.take();
        match (prev, step) {
            (Some((_, pap)), Some(s)) if s.to_new(pap) == Some(ap) => match &s.map {
                None if s.is_empty() => {
                    truthcast_obs::add("core.delta.reuses", 1);
                    self.last_outcome = EpochOutcome::Reused;
                }
                None => {
                    truthcast_obs::add("core.delta.deltas", s.delta().len() as u64);
                    if let Some(r) = self.repair_or_fall_back(g, ap, s.delta(), &[], &[], &[]) {
                        self.last_outcome = EpochOutcome::Repaired {
                            dirty_nodes: r.dirty_nodes,
                            repaired_slices: r.slices,
                            repriced_sources: r.repriced,
                        };
                    }
                }
                Some(map) => self.warm_resize(g, ap, &s.delta, map),
            },
            (Some((pn, pap)), None) if pap == ap && pn != n => {
                truthcast_obs::add("core.delta.cold_resizes", 1);
                self.cold(g, ap);
                self.last_outcome = EpochOutcome::ColdResize { from: pn, to: n };
            }
            _ => {
                self.cold(g, ap);
                self.last_outcome = EpochOutcome::Cold;
            }
        }
        self.prev = Some((n, ap));
        Arc::clone(&self.published)
    }

    /// The cross-resize pipeline: translate warm state under the map,
    /// classify the mapped delta (departed tree parents become severed
    /// slice roots), then repair and re-price exactly as a same-node-set
    /// epoch — with the dead-adjacent survivors added to the relay
    /// re-run seed set and stripped of their row certificates, and the
    /// parents whose children the renumbering reordered added to the
    /// re-run seed set.
    fn warm_resize(&mut self, g: &NodeWeightedGraph, ap: NodeId, md: &MappedDelta, map: &NodeMap) {
        let _resize_span = truthcast_obs::span("core.delta.resize");
        truthcast_obs::add("core.delta.deltas", md.delta.len() as u64);
        let remapped = self.remap_state(map);
        if let Some(r) = self.repair_or_fall_back(
            g,
            ap,
            &md.delta,
            &remapped.severed,
            &md.dead_adjacent,
            &remapped.reordered,
        ) {
            truthcast_obs::add("core.delta.warm_resizes", 1);
            truthcast_obs::add("core.delta.born", md.born as u64);
            truthcast_obs::add("core.delta.died", md.died as u64);
            self.last_outcome = EpochOutcome::WarmResize {
                born: md.born,
                died: md.died,
                repaired: r.repriced,
            };
        }
    }

    /// The repair pipeline shared by same-node-set and warm-resize
    /// epochs: classify `delta` (plus `severed` slice roots) against the
    /// previous tree, then either fall back cold past the damage
    /// threshold — recording [`EpochOutcome::Fallback`] and returning
    /// `None` — or repair the distance table and re-price. See
    /// [`IncrementalEngine::reprice`] for `extra_damage` and `reordered`
    /// (both empty outside a resize epoch).
    fn repair_or_fall_back(
        &mut self,
        g: &NodeWeightedGraph,
        ap: NodeId,
        delta: &GraphDelta,
        severed: &[NodeId],
        extra_damage: &[NodeId],
        reordered: &[NodeId],
    ) -> Option<RepairStats> {
        let region = {
            let shared = self.shared.as_ref().expect("prev epoch left tables");
            classify_delta_severed(delta, severed, &shared.iv, &self.parent, ap)
        };
        truthcast_obs::add("core.delta.dirty_nodes", region.dirty_count as u64);
        let damage = region.dirty_count + region.decrease_seeds.len();
        if (damage as f64) > self.damage_threshold * g.num_nodes() as f64 {
            truthcast_obs::add("core.delta.fallbacks", 1);
            self.cold(g, ap);
            self.last_outcome = EpochOutcome::Fallback {
                dirty_nodes: region.dirty_count,
            };
            return None;
        }
        truthcast_obs::add("core.delta.repaired_slices", region.slices as u64);
        let _repair_span = truthcast_obs::span("core.delta.repair");
        self.old_dist.clone_from(&self.dist);
        self.old_parent.clone_from(&self.parent);
        self.repair(g, &region);
        let repriced = self.reprice(g, ap, delta, extra_damage, reordered);
        Some(RepairStats {
            dirty_nodes: region.dirty_count,
            slices: region.slices,
            repriced,
        })
    }

    /// Translates every piece of warm state into the map's new index
    /// space, returning the severed slice roots (survivors whose tree
    /// parent departed) and the reordered parents (see [`Remapped`]).
    /// The translation protocol:
    ///
    /// * `dist`/`parent` — survivors keep their values under new
    ///   indices; newborns sit at infinity with no parent (they settle
    ///   through decrease-seed relaxation, exactly like a node whose
    ///   first arc just appeared).
    /// * detour rows — compacted member-by-member against the old slice
    ///   order, which [`SubtreeIntervals::remap`] preserves; surviving
    ///   vias are renumbered, vias through a departed member collapse to
    ///   [`ESC_VIA`], as do escapes to a departed target. That collapse
    ///   is safe: such a member neighbored a departed node, so it is in
    ///   `dead_adjacent`, and its certificate fails before any via of
    ///   its is dereferenced.
    /// * cached pricings — survivors keep their entry with every id
    ///   renumbered; an entry referencing a departed node is dropped.
    ///   Also safe: a non-fallback source's cached path is its tree
    ///   path, so a departed reference means a departed tree ancestor,
    ///   which makes the source dirty (severed slice) and re-assembled
    ///   this epoch; fallback sources re-price every epoch regardless.
    /// * shared sweep — intervals remapped (compaction preserves
    ///   survivor ancestry and slice contiguity), fallback marks carried
    ///   per survivor.
    fn remap_state(&mut self, map: &NodeMap) -> Remapped {
        let new_n = map.new_len();
        let old_shared = self.shared.take().expect("prev epoch left tables");
        let mut severed: Vec<NodeId> = Vec::new();
        let mut reordered: Vec<NodeId> = Vec::new();

        let mut dist = vec![Cost::INF; new_n];
        let mut parent = vec![None; new_n];
        // New index of the last child seen per parent: children arrive in
        // old index order, so a descent means the renumbering swapped two
        // siblings' relative order.
        let mut last_child: Vec<Option<NodeId>> = vec![None; new_n];
        for i in 0..map.old_len() {
            let v = NodeId(i as u32);
            let Some(nv) = map.to_new(v) else { continue };
            dist[nv.index()] = self.dist[i];
            parent[nv.index()] = match self.parent[i] {
                Some(p) => match map.to_new(p) {
                    Some(np) => {
                        let last = last_child[np.index()].replace(nv);
                        if last.is_some_and(|c| c > nv) {
                            reordered.push(np);
                        }
                        Some(np)
                    }
                    None => {
                        severed.push(nv);
                        None
                    }
                },
                None => None,
            };
        }
        self.dist = dist;
        self.parent = parent;

        let mut rows = vec![Vec::new(); new_n];
        let mut row_via = vec![Vec::new(); new_n];
        let mut row_stale = vec![false; new_n];
        for i in 0..map.old_len() {
            let x = NodeId(i as u32);
            let Some(nx) = map.to_new(x) else { continue };
            row_stale[nx.index()] = self.row_stale[i];
            let vals = &self.rows[i];
            if vals.is_empty() {
                continue;
            }
            let members = old_shared.iv.subtree(x);
            if members.len() != vals.len() + 1 {
                // A row that was already misaligned with its slice (its
                // relay missed a refresh) cannot be repaired.
                row_stale[nx.index()] = true;
                continue;
            }
            let vias = &self.row_via[i];
            let mut nvals = Vec::with_capacity(vals.len());
            let mut nvias = Vec::with_capacity(vals.len());
            for (k, &y) in members[1..].iter().enumerate() {
                if map.to_new(y).is_none() {
                    continue;
                }
                nvals.push(vals[k]);
                let (tag, v) = (vias[k] & ESC_TAG, vias[k] & !ESC_TAG);
                nvias.push(if vias[k] == ESC_VIA {
                    ESC_VIA
                } else {
                    map.to_new(NodeId(v)).map_or(ESC_VIA, |nv| tag | nv.0)
                });
            }
            rows[nx.index()] = nvals;
            row_via[nx.index()] = nvias;
        }
        self.rows = rows;
        self.row_via = row_via;
        self.row_stale = row_stale;

        let mut out = vec![None; new_n];
        for i in 0..map.old_len() {
            let Some(nv) = map.to_new(NodeId(i as u32)) else {
                continue;
            };
            if let Some(p) = self.published[i].as_ref() {
                out[nv.index()] = remap_pricing(p, map);
            }
        }
        self.published = Arc::new(out);

        let mut fallback = vec![false; new_n];
        for (i, &fb) in old_shared.fallback.iter().enumerate() {
            if let Some(nv) = map.to_new(NodeId(i as u32)) {
                fallback[nv.index()] = fb;
            }
        }
        self.shared = Some(SharedSweep {
            iv: old_shared.iv.remap(map),
            fallback,
            ambiguous_nodes: old_shared.ambiguous_nodes,
        });

        if self.heap_capacity != new_n {
            self.heap = IndexedHeap::new(new_n);
            self.heap_capacity = new_n;
        }
        Remapped { severed, reordered }
    }

    /// Full cold pipeline: AP-rooted sweep, fresh classification, detour
    /// rows for every live relay, every source assembled.
    fn cold(&mut self, g: &NodeWeightedGraph, ap: NodeId) {
        let n = g.num_nodes();
        {
            let _s = truthcast_obs::span("delta.cold_sweep");
            g.sweep(&mut self.ws, ap);
            self.ws.export_into(&mut self.dist, &mut self.parent);
        }
        if self.heap_capacity != n {
            self.heap = IndexedHeap::new(n);
            self.heap_capacity = n;
        }
        let shared = classify(g, &self.dist, &self.parent, ap);
        self.rows.clear();
        self.rows.resize(n, Vec::new());
        self.row_via.clear();
        self.row_via.resize(n, Vec::new());
        self.row_stale.clear();
        self.row_stale.resize(n, false);
        self.touched.clear();
        self.touched.resize(n, true);
        let mut xs: Vec<NodeId> = Vec::new();
        for &x in shared.iv.order().iter().skip(1) {
            if shared.iv.subtree(x).len() < 2 {
                continue;
            }
            if shared.fallback[x.index()] {
                self.row_stale[x.index()] = true;
            } else {
                xs.push(x);
            }
        }
        {
            let _s = truthcast_obs::span("delta.subtree_runs");
            let (dist, iv) = (&self.dist, &shared.iv);
            let results = par_map_with(
                xs.len(),
                self.threads,
                || DetourScratch::new(n),
                |sc, i| detour_run::<_, true>(g, dist, iv, xs[i], sc),
            );
            for (&x, (vals, vias, _, _)) in xs.iter().zip(results) {
                self.rows[x.index()] = vals;
                self.row_via[x.index()] = vias;
            }
            truthcast_obs::add("core.delta.subtree_runs", xs.len() as u64);
        }
        self.published = Arc::new(vec![None; n]);
        let everything = vec![true; n];
        self.assemble(g, ap, &shared, &everything);
        self.shared = Some(shared);
    }

    /// Dynamic-SSSP repair: invalidate the dirty slices, seed them from
    /// their crossing arcs, offer the decrease seeds their best new
    /// candidate, and settle with one Dijkstra run. Leaves exact
    /// distances, a valid tight parent tree, and the touched set.
    fn repair(&mut self, g: &NodeWeightedGraph, region: &DirtyRegion) {
        let n = g.num_nodes();
        self.touched.clear();
        self.touched.resize(n, false);
        self.heap.clear();
        for v in 0..n {
            if region.dirty[v] {
                self.dist[v] = Cost::INF;
                self.parent[v] = None;
                self.touched[v] = true;
            }
        }
        for v in 0..n {
            if !region.dirty[v] {
                continue;
            }
            let vid = NodeId(v as u32);
            // Dirty neighbors sit at infinity here, so only intact
            // distances — certified upper bounds — can seed.
            let (best, via) = best_neighbour(g, &self.dist, vid);
            if best.is_finite() {
                self.dist[v] = best;
                self.parent[v] = via;
                self.heap.push(vid.0, best);
            }
        }
        for &x in &region.decrease_seeds {
            if region.dirty[x.index()] {
                continue;
            }
            let (best, via) = best_neighbour(g, &self.dist, x);
            if best < self.dist[x.index()] {
                self.dist[x.index()] = best;
                self.parent[x.index()] = via;
                self.heap.push_or_update(x.0, best);
            }
        }
        while let Some((yy, d)) = self.heap.pop_min() {
            let y = NodeId(yy);
            if d > self.dist[y.index()] {
                continue;
            }
            self.touched[y.index()] = true;
            for &z in g.neighbors(y) {
                let cand = d.saturating_add(g.cost(z));
                if cand < self.dist[z.index()] {
                    self.dist[z.index()] = cand;
                    self.parent[z.index()] = Some(y);
                    self.heap.push_or_update(z.0, cand);
                }
            }
        }
    }

    /// Post-repair re-pricing: fresh classification, conservative relay
    /// re-runs, branch-local source re-assembly. Returns the number of
    /// re-priced sources. Both lists are empty outside a resize epoch:
    ///
    /// * `extra_damage` names survivors that neighbored a departed node:
    ///   their escapes and support chains may have routed through it, so
    ///   they join the seed set A and no row certificate through them
    ///   holds.
    /// * `reordered` names parents whose children the renumbering put in
    ///   a new relative order. A slice lists siblings in index order, so
    ///   the slice of such a parent and of every ancestor changes order
    ///   even where the tree did not change, and a cached row kept
    ///   without a re-run would be read at the wrong offsets. They join
    ///   A only: no detour value moved, so re-running (which re-keys the
    ///   cached row by node identity) realigns the row.
    fn reprice(
        &mut self,
        g: &NodeWeightedGraph,
        ap: NodeId,
        delta: &GraphDelta,
        extra_damage: &[NodeId],
        reordered: &[NodeId],
    ) -> usize {
        let n = g.num_nodes();
        let old_shared = self.shared.take().expect("prev epoch left tables");
        // Fresh fallback marks and intervals for the repaired tree — the
        // classification is O(n + m), far below a cold sweep plus detour
        // recompute.
        let shared = classify(g, &self.dist, &self.parent, ap);

        // Seed set A: anything whose local pricing environment changed.
        // A detour row for relay x depends on member costs and arcs, on
        // crossing arcs, and on escape distances just outside the slice;
        // fallback marks depend on a node's and its neighbors' distances.
        // Every such change implies a touched node, a neighbor of one, or
        // a changed-arc endpoint.
        let mut in_a = vec![false; n];
        for v in 0..n {
            if !self.touched[v] {
                continue;
            }
            in_a[v] = true;
            for &w in g.neighbors(NodeId(v as u32)) {
                in_a[w.index()] = true;
            }
        }
        for &(u, v) in delta.edges_added.iter().chain(&delta.edges_removed) {
            in_a[u.index()] = true;
            in_a[v.index()] = true;
        }
        for &(x, _, _) in &delta.costs_changed {
            in_a[x.index()] = true;
        }
        for &v in extra_damage.iter().chain(reordered) {
            in_a[v.index()] = true;
        }

        // R: ancestor-or-self closure of A in the new tree — exactly the
        // relays whose subtree slice can contain a seed. Chains stop at
        // the first already-marked node (amortized linear).
        let mut in_r = vec![false; n];
        for (v, &active) in in_a.iter().enumerate() {
            let vid = NodeId(v as u32);
            if !active || vid == ap || !shared.iv.in_tree(vid) {
                continue;
            }
            let mut cur = vid;
            while !in_r[cur.index()] {
                in_r[cur.index()] = true;
                match self.parent[cur.index()] {
                    Some(p) if p != ap => cur = p,
                    _ => break,
                }
            }
        }

        // Re-run every live relay in R, plus any live relay whose cached
        // row went stale while it was fallback-marked or a leaf.
        let mut xs: Vec<NodeId> = Vec::new();
        for &x in shared.iv.order().iter().skip(1) {
            let live = shared.iv.subtree(x).len() >= 2 && !shared.fallback[x.index()];
            if live {
                if in_r[x.index()] || self.row_stale[x.index()] {
                    xs.push(x);
                }
            } else if in_r[x.index()] {
                self.row_stale[x.index()] = true;
            }
        }
        // Per-node certificate flags (see `repair_row`): a declared-cost
        // change or a departed neighbour voids every certificate through
        // a node; a removed arc makes a certificate step out of its
        // endpoints check that its own arc survived.
        let mut node_flag = vec![0u8; n];
        for &(c, _, _) in &delta.costs_changed {
            node_flag[c.index()] |= STALE;
        }
        for &v in extra_damage {
            node_flag[v.index()] |= STALE;
        }
        for &(u, v) in &delta.edges_removed {
            node_flag[u.index()] |= CUT;
            node_flag[v.index()] |= CUT;
        }

        // An un-stale row is aligned with the previous intervals (any
        // structural change to its slice refreshed it that epoch), so it
        // can be *repaired* member-by-member instead of recomputed.
        let mut rank = vec![NO_RANK; n];
        let mut repairs = 0usize;
        for (i, &x) in xs.iter().enumerate() {
            if !self.row_stale[x.index()]
                && old_shared.iv.in_tree(x)
                && old_shared.iv.subtree(x).len() == self.rows[x.index()].len() + 1
            {
                rank[x.index()] = i as u32;
                repairs += 1;
            }
        }
        let results = {
            let _s = truthcast_obs::span("delta.subtree_runs");
            let seeds = self.collect_seeds(g, delta, &shared.iv, &old_shared.iv, &rank);
            let dist = &self.dist;
            let iv = &shared.iv;
            let old_iv = &old_shared.iv;
            let rows = &self.rows;
            let row_via = &self.row_via;
            let (node_flag, rank) = (&node_flag, &rank);
            truthcast_obs::add("core.delta.subtree_runs", xs.len() as u64);
            truthcast_obs::add("core.delta.row_repairs", repairs as u64);
            truthcast_obs::add("core.delta.row_rebuilds", (xs.len() - repairs) as u64);
            truthcast_obs::add("core.delta.row_seeds", seeds.len() as u64);
            par_map_with(
                xs.len(),
                self.threads,
                || RowScratch::new(n),
                |sc, i| {
                    let x = xs[i];
                    let xi = x.index();
                    if rank[xi] == NO_RANK {
                        let (vals, vias, _, _) = detour_run::<_, true>(g, dist, iv, x, &mut sc.det);
                        return RowOutcome {
                            vals,
                            vias,
                            changed: None,
                            recomputed: 0,
                        };
                    }
                    let r = i as u32;
                    let row_seeds = &seeds
                        [seeds.partition_point(|s| s.0 < r)..seeds.partition_point(|s| s.0 <= r)];
                    let (old_vals, old_vias) = (&rows[xi][..], &row_via[xi][..]);
                    repair_row(
                        g, dist, iv, old_iv, x, old_vals, old_vias, node_flag, row_seeds, sc,
                    )
                },
            )
        };

        // S: the sources whose cached pricing can actually be stale.
        let mut sel = vec![false; n];

        // (1) Subtrees of touched nodes: a touched node's distance, cost,
        // parent, or tree membership moved, and every descendant inherits
        // the new root path (descendants of a *distance* change are
        // touched themselves; this also catches tie-descendants whose
        // distance held still while their path rerouted above them).
        // Maximal roots only — preorder sort puts ancestors first, and
        // out-of-tree touched nodes (which sort ahead of the tree) mark
        // just themselves to be re-assembled as `None`.
        let mut troots: Vec<NodeId> = (0..n)
            .filter(|&v| self.touched[v])
            .map(|v| NodeId(v as u32))
            .collect();
        troots.sort_by_key(|&t| shared.iv.enter(t));
        for &t in &troots {
            if !shared.iv.in_tree(t) {
                sel[t.index()] = true;
                continue;
            }
            if sel[t.index()] {
                continue;
            }
            for &y in shared.iv.subtree(t) {
                sel[y.index()] = true;
            }
        }

        // (2) Row changes: a repaired row reports the members whose F
        // value moved (or that joined its slice); a rebuilt row has no
        // baseline and marks its whole slice.
        let mut recomputed = 0usize;
        for (&x, row) in xs.iter().zip(results) {
            match &row.changed {
                Some(changed) => {
                    for &y in changed {
                        sel[y.index()] = true;
                    }
                }
                None => {
                    for &y in &shared.iv.subtree(x)[1..] {
                        sel[y.index()] = true;
                    }
                }
            }
            recomputed += row.recomputed;
            self.rows[x.index()] = row.vals;
            self.row_via[x.index()] = row.vias;
            self.row_stale[x.index()] = false;
        }
        truthcast_obs::add("core.delta.row_members_recomputed", recomputed as u64);

        // (3) Ambiguity flips: a source that switched between the
        // shared-sweep path and the per-session fallback needs its entry
        // rewritten from the other pipeline even if nothing else moved.
        for (v, s) in sel.iter_mut().enumerate() {
            let vid = NodeId(v as u32);
            if shared.iv.in_tree(vid)
                && old_shared.iv.in_tree(vid)
                && shared.fallback[v] != old_shared.fallback[v]
            {
                *s = true;
            }
        }

        let repriced = self.assemble(g, ap, &shared, &sel);
        self.shared = Some(shared);
        repriced
    }

    /// This epoch's per-row decrease seeds in one flat list of `(row,
    /// member, target)`, sorted so each row's seeds are contiguous. A
    /// row is named by its position `i` among the re-run relays, which
    /// `rank` maps (`rank[x] = i` for a repaired row `x`, [`NO_RANK`]
    /// otherwise).
    ///
    /// A kept member's cached value was a minimum over the previous
    /// epoch's escapes, so only an escape that got *better* can undercut
    /// it: a target whose distance dropped, a target that left the row's
    /// subtree (it was internal before), or the far end of an added arc.
    /// Each is offered to the rows holding the member but not the
    /// target — the new-tree ancestors of the member strictly below its
    /// first common ancestor with the target — where it beats the
    /// member's cached value. An added arc inside a row re-queues both
    /// endpoints instead ([`PUSH_SEED`]), so the row's Dijkstra relaxes
    /// across it. (The AP holds no row: its rank is always [`NO_RANK`].)
    fn collect_seeds(
        &self,
        g: &NodeWeightedGraph,
        delta: &GraphDelta,
        iv: &SubtreeIntervals,
        old_iv: &SubtreeIntervals,
        rank: &[u32],
    ) -> Vec<(u32, u32, u32)> {
        let n = g.num_nodes();
        let (dist, parent, rows) = (&self.dist, &self.parent, &self.rows);
        let mut seeds: Vec<(u32, u32, u32)> = Vec::new();

        // Movers: a node can only leave a slice if some link on its
        // previous root path changed, so mark every node below a changed
        // parent link in the previous tree (interval coverage skips
        // nested roots, keeping this linear).
        let mut moved = vec![false; n];
        let mut roots: Vec<NodeId> = (0..n)
            .filter(|&v| self.old_parent[v] != parent[v])
            .map(|v| NodeId(v as u32))
            .filter(|&q| old_iv.in_tree(q))
            .collect();
        roots.sort_by_key(|&q| old_iv.enter(q));
        let mut bound = 0u32;
        for &q in &roots {
            let e = old_iv.enter(q).expect("filtered to in-tree");
            if e < bound {
                continue;
            }
            let slice = old_iv.subtree(q);
            bound = e + slice.len() as u32;
            for &y in slice {
                moved[y.index()] = true;
            }
        }

        // Offers member `y` the escape to `w` in every repaired row that
        // holds `y` but not `w`: the new-tree ancestors of `y` up to, but
        // not including, its first common ancestor with `w` (at the
        // latest the AP, an ancestor of every reachable `w`). With
        // `left_only`, only rows whose previous slice held `w` qualify.
        // An offer matters only below the member's cached value: a
        // member new to the slice, or one whose certificate fails, scans
        // its own escapes anyway.
        let offer = |y: NodeId, w: NodeId, left_only: bool, seeds: &mut Vec<(u32, u32, u32)>| {
            if !iv.in_tree(y) {
                return;
            }
            let c = dist[w.index()];
            let mut cur = parent[y.index()];
            while let Some(x) = cur.filter(|&x| !iv.is_ancestor(x, w)) {
                let r = rank[x.index()];
                if r != NO_RANK && (!left_only || old_iv.is_ancestor(x, w)) {
                    let cached = old_iv
                        .slice_offset(x, y)
                        .map(|off| rows[x.index()][off - 1]);
                    if cached.is_some_and(|f| c < f) {
                        seeds.push((r, y.0, w.0));
                    }
                }
                cur = parent[x.index()];
            }
        };
        for v in 0..n {
            let dropped = dist[v] < self.old_dist[v];
            if !(dropped || moved[v]) || !dist[v].is_finite() {
                continue;
            }
            // A mover whose distance held or rose only beats the old
            // minimum in the rows it left.
            let w = NodeId(v as u32);
            for &y in g.neighbors(w) {
                offer(y, w, !dropped, &mut seeds);
            }
        }
        for &(u, v) in &delta.edges_added {
            if dist[v.index()].is_finite() {
                offer(u, v, false, &mut seeds);
            }
            if dist[u.index()].is_finite() {
                offer(v, u, false, &mut seeds);
            }
            if !(iv.in_tree(u) && iv.in_tree(v)) {
                continue;
            }
            // Rows holding both endpoints: strict ancestors of both.
            let mut lca = u;
            while !iv.is_ancestor(lca, v) {
                lca = parent[lca.index()].expect("an in-tree node below the AP has a parent");
            }
            let mut cur = if lca == u || lca == v {
                parent[lca.index()]
            } else {
                Some(lca)
            };
            while let Some(x) = cur {
                let r = rank[x.index()];
                if r != NO_RANK {
                    seeds.push((r, u.0, PUSH_SEED));
                    seeds.push((r, v.0, PUSH_SEED));
                }
                cur = parent[x.index()];
            }
        }

        // Sorting by the whole tuple keeps the order deterministic.
        seeds.sort_unstable();
        seeds
    }

    /// Writes pricings for every source selected by `sel`, reading detour
    /// rows out of the cache by slice offset; tie-ambiguous sources are
    /// re-priced per-session *unconditionally* (see module docs). Returns
    /// how many sources were re-priced.
    fn assemble(
        &mut self,
        g: &NodeWeightedGraph,
        ap: NodeId,
        shared: &SharedSweep,
        sel: &[bool],
    ) -> usize {
        let _s = truthcast_obs::span("delta.assemble");
        let iv = &shared.iv;
        let out = Arc::make_mut(&mut self.published);
        let mut fb: Vec<NodeId> = Vec::new();
        let mut repriced = 0usize;
        for v in g.node_ids() {
            if v == ap {
                continue;
            }
            if shared.fallback[v.index()] && iv.in_tree(v) {
                fb.push(v);
                continue;
            }
            if !sel[v.index()] {
                continue;
            }
            repriced += 1;
            out[v.index()] = iv
                .in_tree(v)
                .then(|| price_tree_source(g, &self.dist, &self.parent, iv, &self.rows, v));
        }
        {
            let _s = truthcast_obs::span("delta.fallback");
            price_fallbacks(g, ap, &self.dist, &fb, self.threads, out);
        }
        self.last_fallback_sources = fb.len();
        repriced + fb.len()
    }
}

/// `v`'s best continuation over its neighbours' current distances:
/// the minimum of `dist[w] + c_v` and the neighbour `w` achieving it.
/// The comparison is strict, so the first minimum in neighbour order
/// wins.
fn best_neighbour(g: &NodeWeightedGraph, dist: &[Cost], v: NodeId) -> (Cost, Option<NodeId>) {
    let (mut best, mut via) = (Cost::INF, None);
    for &w in g.neighbors(v) {
        let cand = dist[w.index()].saturating_add(g.cost(v));
        if cand < best {
            best = cand;
            via = Some(w);
        }
    }
    (best, via)
}

/// What [`IncrementalEngine::remap_state`] learned about the renumbering,
/// in the new index space.
struct Remapped {
    /// Survivors whose tree parent departed: severed slice roots.
    severed: Vec<NodeId>,
    /// Surviving parents with two surviving children whose relative
    /// index order the map reversed. Empty for joins, for leaves of the
    /// last node, and for any order-preserving compaction.
    reordered: Vec<NodeId>,
}

/// Counts a successful repair epoch reports in its [`EpochOutcome`].
struct RepairStats {
    dirty_nodes: usize,
    slices: usize,
    repriced: usize,
}

/// Translates a cached pricing into `map`'s new index space, or `None`
/// if any referenced node departed (see [`IncrementalEngine`]'s remap
/// protocol for why dropping such entries is safe).
fn remap_pricing(p: &UnicastPricing, map: &NodeMap) -> Option<UnicastPricing> {
    let mut path = Vec::with_capacity(p.path.len());
    for &v in &p.path {
        path.push(map.to_new(v)?);
    }
    let mut payments = Vec::with_capacity(p.payments.len());
    for &(r, c) in &p.payments {
        payments.push((map.to_new(r)?, c));
    }
    Some(UnicastPricing {
        path,
        lcp_cost: p.lcp_cost,
        payments,
    })
}

/// `node_flag` bit: the node's declared cost changed, or it neighboured
/// a node that departed in a resize — no certificate through it holds.
const STALE: u8 = 1;
/// `node_flag` bit: the node lost an arc, so a certificate step out of
/// it checks that its own arc survived.
const CUT: u8 = 2;
/// Seed target meaning "re-queue the member at its current value".
const PUSH_SEED: u32 = u32::MAX;
/// `rank` entry of a row that is not repaired this epoch.
const NO_RANK: u32 = u32::MAX;

/// `flag` bit: the node appeared in the relay's previous-epoch slice.
const IN_OLD: u8 = 1;
/// `flag` bit: the cached F value is certified still achievable.
const VALID: u8 = 2;
/// `flag` bit: the cached F value must be recomputed.
const INVALID: u8 = 4;
/// `flag` bit: the node is on the support chain being walked.
const ON_CHAIN: u8 = 8;

/// Per-worker scratch for [`repair_row`]: the full-run scratch plus
/// scatter arrays holding the previous epoch's row. `flag` entries are
/// zeroed before each run returns; `f_old`/`via_old` reads are gated on
/// the `IN_OLD` bit, so those arrays never need resetting.
struct RowScratch {
    det: DetourScratch,
    f_old: Vec<Cost>,
    via_old: Vec<u32>,
    flag: Vec<u8>,
    chain: Vec<NodeId>,
}

impl RowScratch {
    fn new(n: usize) -> RowScratch {
        RowScratch {
            det: DetourScratch::new(n),
            f_old: vec![Cost::INF; n],
            via_old: vec![ESC_VIA; n],
            flag: vec![0; n],
            chain: Vec::new(),
        }
    }
}

/// One re-run detour row: new values and support forest in slice order,
/// the members whose value moved or that joined the slice (`None` for a
/// rebuilt row, which has no baseline), and how many members the repair
/// recomputed from their escapes.
struct RowOutcome {
    vals: Vec<Cost>,
    vias: Vec<u32>,
    changed: Option<Vec<NodeId>>,
    recomputed: usize,
}

/// Certified repair of one cached detour row across an epoch.
///
/// Member `y` keeps its cached `F(y)` iff a **certificate** shows the
/// value is still achievable: `y` is in the old and the new slice, it is
/// not `STALE` (declared cost unchanged, no departed neighbour), and its
/// support step still holds —
///
/// * via member `z`: `z` is still a strict descendant of `x`, the arc
///   `(y, z)` survives, and `z` is itself kept;
/// * via an escape to `w` (`ESC_TAG | w`): `w` is still outside
///   `subtree(x)`, the arc `(y, w)` survives, and `dist[w]` still equals
///   `F(y)`.
///
/// Every other member is recomputed: reset to its best escape and
/// queued, with its kept neighbours queued at their kept values (the
/// border). The row's decrease seeds then offer their escapes, and
/// [`PUSH_SEED`]s re-queue both ends of an added internal arc. One
/// slice-restricted Dijkstra settles the lot, and may lower kept
/// members too.
///
/// Why the values are exact. Certificates make every kept value an
/// upper bound, and every queued value is achievable, so the result is
/// never too low. It is never too high either, because the final labels
/// satisfy every constraint of the row's shortest-path problem:
///
/// * an internal arc out of a node the run popped was relaxed;
/// * an internal arc between two kept nodes that were never popped
///   existed last epoch, and the old row satisfied it with the same
///   cost (both nodes are not `STALE`);
/// * an internal arc from a kept node to a recomputed one, or one that
///   was added, had its kept end queued (border or push seed);
/// * an escape of a recomputed node was scanned, and an escape of a kept
///   node is either unchanged since last epoch — so the old minimum
///   still bounds it — or improved, and every improved escape (a target
///   whose distance dropped, that left the subtree, or whose arc is
///   new) is a seed of this row.
///
/// Labels that are achievable and satisfy every constraint are the
/// exact minima, so the values are bit-identical to a fresh
/// [`detour_run`] (the support forest may break ties differently,
/// which nothing reads for values).
#[allow(clippy::too_many_arguments)]
fn repair_row(
    g: &NodeWeightedGraph,
    dist: &[Cost],
    iv: &SubtreeIntervals,
    old_iv: &SubtreeIntervals,
    x: NodeId,
    old_vals: &[Cost],
    old_vias: &[u32],
    node_flag: &[u8],
    seeds: &[(u32, u32, u32)],
    sc: &mut RowScratch,
) -> RowOutcome {
    let old_members = &old_iv.subtree(x)[1..];
    let members = &iv.subtree(x)[1..];
    let RowScratch {
        det,
        f_old,
        via_old,
        flag,
        chain,
    } = sc;
    let DetourScratch { dval, heap, via } = det;
    heap.clear();

    for (i, &y) in old_members.iter().enumerate() {
        f_old[y.index()] = old_vals[i];
        via_old[y.index()] = old_vias[i];
        flag[y.index()] = IN_OLD;
    }

    // Certificate walk, memoized through `flag`: each support chain is
    // walked once, and the verdict where it resolves back-propagates to
    // every node walked to reach it. `ON_CHAIN` stops the walk on a
    // cycle, which a support forest never has.
    let arc_holds = |a: NodeId, b: NodeId| {
        node_flag[a.index()] & CUT == 0 || g.neighbors(a).binary_search(&b).is_ok()
    };
    for &y in members.iter() {
        let mut cur = y;
        let verdict = loop {
            let f = flag[cur.index()];
            if f & (VALID | INVALID) != 0 {
                break f & (VALID | INVALID);
            }
            if f & (IN_OLD | ON_CHAIN) != IN_OLD || node_flag[cur.index()] & STALE != 0 {
                break INVALID;
            }
            let v = via_old[cur.index()];
            if v == ESC_VIA {
                break INVALID;
            }
            if v & ESC_TAG != 0 {
                let w = NodeId(v & !ESC_TAG);
                let holds = !iv.is_ancestor(x, w)
                    && arc_holds(cur, w)
                    && dist[w.index()] == f_old[cur.index()];
                break if holds { VALID } else { INVALID };
            }
            let z = NodeId(v);
            if !iv.is_strict_descendant(z, x) || !arc_holds(cur, z) {
                break INVALID;
            }
            flag[cur.index()] |= ON_CHAIN;
            chain.push(cur);
            cur = z;
        };
        flag[cur.index()] |= verdict;
        for &p in chain.iter() {
            flag[p.index()] = (flag[p.index()] & !ON_CHAIN) | verdict;
        }
        chain.clear();
    }

    // Kept members start at their certified value; recomputed members
    // restart from their best escape, queueing their kept neighbours.
    let mut recomputed = 0usize;
    for &y in members.iter() {
        if flag[y.index()] & INVALID != 0 {
            recomputed += 1;
            dval[y.index()] = Cost::INF;
        } else {
            dval[y.index()] = f_old[y.index()];
            via[y.index()] = via_old[y.index()];
        }
    }
    if recomputed > 0 {
        for &y in members.iter() {
            if flag[y.index()] & INVALID == 0 {
                continue;
            }
            let (mut esc, mut target) = (Cost::INF, ESC_VIA);
            g.arcs_from(y, |w, arc| {
                if !iv.is_ancestor(x, w) {
                    let c = g.onward(arc, dist[w.index()]);
                    if c < esc {
                        (esc, target) = (c, ESC_TAG | w.0);
                    }
                } else if w != x && flag[w.index()] & INVALID == 0 && dval[w.index()].is_finite() {
                    heap.push_or_update(w.0, dval[w.index()]);
                }
            });
            dval[y.index()] = esc;
            via[y.index()] = target;
            if esc.is_finite() {
                heap.push_or_update(y.0, esc);
            }
        }
    }
    for &(_, y, w) in seeds {
        let yi = y as usize;
        if w == PUSH_SEED {
            if dval[yi].is_finite() {
                heap.push_or_update(y, dval[yi]);
            }
            continue;
        }
        // Node model: an escape to `w` costs `w`'s inclusive distance.
        let c = dist[w as usize];
        if c < dval[yi] {
            dval[yi] = c;
            via[yi] = ESC_TAG | w;
            heap.push_or_update(y, c);
        }
    }
    while let Some((yy, fy)) = heap.pop_min() {
        let y = NodeId(yy);
        if fy > dval[y.index()] {
            continue;
        }
        g.arcs_from(y, |z, arc| {
            if iv.is_strict_descendant(z, x) {
                let cand = fy.saturating_add(g.reverse_step(y, arc));
                if cand < dval[z.index()] {
                    dval[z.index()] = cand;
                    via[z.index()] = yy;
                    heap.push_or_update(z.0, cand);
                }
            }
        });
    }

    let mut changed = Vec::new();
    let vals: Vec<Cost> = members
        .iter()
        .map(|&y| {
            let v = dval[y.index()];
            if flag[y.index()] & IN_OLD == 0 || v != f_old[y.index()] {
                changed.push(y);
            }
            v
        })
        .collect();
    let vias: Vec<u32> = members.iter().map(|&y| via[y.index()]).collect();
    for &y in old_members.iter() {
        flag[y.index()] = 0;
    }
    for &y in members.iter() {
        flag[y.index()] = 0;
        dval[y.index()] = Cost::INF;
    }
    RowOutcome {
        vals,
        vias,
        changed: Some(changed),
        recomputed,
    }
}

impl Default for IncrementalEngine {
    fn default() -> IncrementalEngine {
        IncrementalEngine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_sources::all_sources_payments;

    fn units(pairs: &[(u32, u32)], costs: &[u64]) -> NodeWeightedGraph {
        NodeWeightedGraph::from_pairs_units(pairs, costs)
    }

    /// Prices `next` on an engine that last priced `prev`, through the
    /// step between them.
    fn advance(
        e: &mut IncrementalEngine,
        prev: &NodeWeightedGraph,
        next: &NodeWeightedGraph,
        ap: NodeId,
        map: Option<&NodeMap>,
    ) -> Arc<Vec<Option<UnicastPricing>>> {
        e.price_epoch(next, ap, EpochStep::between(prev, next, map).as_ref())
    }

    #[test]
    fn delta_between_detects_all_change_kinds() {
        let old = units(&[(0, 1), (1, 2), (0, 3)], &[0, 5, 7, 2]);
        let new = units(&[(0, 1), (1, 3), (0, 3)], &[0, 5, 9, 2]);
        let d = GraphDelta::between(&old, &new).unwrap();
        assert_eq!(d.edges_added, vec![(NodeId(1), NodeId(3))]);
        assert_eq!(d.edges_removed, vec![(NodeId(1), NodeId(2))]);
        assert_eq!(
            d.costs_changed,
            vec![(NodeId(2), Cost::from_units(7), Cost::from_units(9))]
        );
        assert_eq!(d.len(), 3);
        assert!(GraphDelta::between(&old, &old).unwrap().is_empty());
    }

    #[test]
    fn delta_between_rejects_node_count_mismatch() {
        let a = units(&[(0, 1)], &[0, 1]);
        let b = units(&[(0, 1)], &[0, 1, 2]);
        assert!(GraphDelta::between(&a, &b).is_none());
    }

    #[test]
    fn identical_epoch_reuses() {
        let g = units(&[(0, 1), (1, 3), (0, 2), (2, 3)], &[0, 5, 7, 0]);
        let mut e = IncrementalEngine::with_threads(2);
        let first = e.price_epoch(&g, NodeId(3), None);
        assert_eq!(e.last_outcome(), EpochOutcome::Cold);
        let second = advance(&mut e, &g, &g, NodeId(3), None);
        assert_eq!(e.last_outcome(), EpochOutcome::Reused);
        assert!(
            Arc::ptr_eq(&first, &second),
            "a reused epoch copies nothing"
        );
        assert_eq!(*first, all_sources_payments(&g, NodeId(3)));
    }

    #[test]
    fn single_cost_change_repairs_bit_exact() {
        let pairs = [(0, 1), (1, 3), (0, 2), (2, 3), (1, 2)];
        let mut e = IncrementalEngine::with_threads(2);
        let ap = NodeId(3);
        let g0 = units(&pairs, &[0, 5, 7, 0]);
        e.price_epoch(&g0, ap, None);
        let g1 = units(&pairs, &[0, 5, 3, 0]);
        let got = advance(&mut e, &g0, &g1, ap, None);
        assert!(matches!(e.last_outcome(), EpochOutcome::Repaired { .. }));
        assert_eq!(*got, all_sources_payments(&g1, ap));
        let (dist, _) = e.tables();
        let mut cold = crate::AllSourcesEngine::with_threads(1);
        cold.price_all_sources(&g1, ap);
        assert_eq!(dist, cold.tables().0);
    }

    #[test]
    fn zero_threshold_always_falls_back() {
        let pairs = [(0, 1), (1, 2), (0, 2)];
        let mut e = IncrementalEngine::with_threads(1).with_damage_threshold(0.0);
        let ap = NodeId(0);
        let g0 = units(&pairs, &[0, 4, 9]);
        e.price_epoch(&g0, ap, None);
        let g1 = units(&pairs, &[0, 4, 2]);
        let got = advance(&mut e, &g0, &g1, ap, None);
        assert!(matches!(e.last_outcome(), EpochOutcome::Fallback { .. }));
        assert_eq!(*got, all_sources_payments(&g1, ap));
    }

    #[test]
    fn ap_cost_change_is_inert() {
        let pairs = [(0, 1), (1, 2)];
        let mut e = IncrementalEngine::with_threads(1);
        let ap = NodeId(0);
        let g0 = units(&pairs, &[3, 4, 9]);
        let before = e.price_epoch(&g0, ap, None);
        let g1 = units(&pairs, &[8, 4, 9]);
        let after = advance(&mut e, &g0, &g1, ap, None);
        assert_eq!(
            e.last_outcome(),
            EpochOutcome::Repaired {
                dirty_nodes: 0,
                repaired_slices: 0,
                repriced_sources: 0,
            }
        );
        assert_eq!(before, after);
        assert_eq!(*after, all_sources_payments(&g1, ap));
    }

    #[test]
    fn disconnect_and_reconnect_epochs_stay_exact() {
        // 0-1-2 chain; epoch 1 severs 1-2 (node 2 unreachable), epoch 2
        // restores it. Threshold 1.0: on n=3 even one dirty node would
        // otherwise trip the damage fallback.
        let mut e = IncrementalEngine::with_threads(2).with_damage_threshold(1.0);
        let ap = NodeId(0);
        let full = units(&[(0, 1), (1, 2)], &[0, 4, 6]);
        let cut = units(&[(0, 1)], &[0, 4, 6]);
        e.price_epoch(&full, ap, None);
        let t1 = advance(&mut e, &full, &cut, ap, None);
        assert!(matches!(e.last_outcome(), EpochOutcome::Repaired { .. }));
        assert!(t1[2].is_none());
        assert_eq!(*t1, all_sources_payments(&cut, ap));
        let t2 = advance(&mut e, &cut, &full, ap, None);
        assert_eq!(*t2, all_sources_payments(&full, ap));
        assert!(t2[2].is_some());
    }

    #[test]
    fn node_count_change_goes_cold_resize() {
        let mut e = IncrementalEngine::with_threads(1);
        let ap = NodeId(0);
        let small = units(&[(0, 1)], &[0, 4]);
        e.price_epoch(&small, ap, None);
        let bigger = units(&[(0, 1), (1, 2)], &[0, 4, 5]);
        // No map across the resize: there is no step to take.
        assert!(EpochStep::between(&small, &bigger, None).is_none());
        let got = advance(&mut e, &small, &bigger, ap, None);
        assert_eq!(
            e.last_outcome(),
            EpochOutcome::ColdResize { from: 2, to: 3 }
        );
        assert_eq!(*got, all_sources_payments(&bigger, ap));
    }

    #[test]
    fn between_mapped_projects_into_the_new_space() {
        // Old: 0-1-2 chain. Node 1 leaves (2 swaps into its slot), a
        // newborn appears at index 2 bridging 0 and old 2.
        let old = units(&[(0, 1), (1, 2)], &[0, 4, 6]);
        let new = units(&[(0, 2), (1, 2)], &[0, 6, 3]);
        let map = {
            let leave = NodeMap::leave_swap(3, NodeId(1));
            // leave_swap yields 2 nodes; extend to 3 with a birth at 2.
            NodeMap::from_old_to_new(
                (0..3)
                    .map(|i| leave.to_new(NodeId(i as u32)))
                    .collect::<Vec<_>>(),
                3,
            )
        };
        let md = GraphDelta::between_mapped(&old, &new, &map);
        assert_eq!(md.born, 1);
        assert_eq!(md.died, 1);
        // Old (1,2) and (0,1) both touched the departed node; survivors
        // 0 and old-2 (now 1) are dead-adjacent. The newborn's arcs are
        // pure additions; no survivor–survivor edge was removed.
        assert_eq!(md.dead_adjacent, vec![NodeId(0), NodeId(1)]);
        assert_eq!(
            md.delta.edges_added,
            vec![(NodeId(0), NodeId(2)), (NodeId(1), NodeId(2))]
        );
        assert!(md.delta.edges_removed.is_empty());
        // Old node 2 cost 6 survives at index 1 with cost 6: unchanged.
        assert!(md.delta.costs_changed.is_empty());
    }

    #[test]
    fn warm_join_epoch_matches_cold() {
        // Diamond 0-1-3, 0-2-3; a newborn 4 bridges 1 and 3 cheaply.
        let mut e = IncrementalEngine::with_threads(2).with_damage_threshold(1.0);
        let ap = NodeId(3);
        let g0 = units(&[(0, 1), (1, 3), (0, 2), (2, 3)], &[0, 5, 7, 0]);
        e.price_epoch(&g0, ap, None);
        let g1 = units(
            &[(0, 1), (1, 3), (0, 2), (2, 3), (0, 4), (4, 3)],
            &[0, 5, 7, 0, 1],
        );
        let got = advance(&mut e, &g0, &g1, ap, Some(&NodeMap::join(4, 1)));
        assert_eq!(
            e.last_outcome(),
            EpochOutcome::WarmResize {
                born: 1,
                died: 0,
                repaired: 2,
            }
        );
        assert_eq!(*got, all_sources_payments(&g1, ap));
        let mut cold = crate::AllSourcesEngine::with_threads(1);
        cold.price_all_sources(&g1, ap);
        assert_eq!(e.tables().0, cold.tables().0);
    }

    #[test]
    fn warm_leave_epoch_matches_cold() {
        // 5-node double diamond; node 1 departs, node 4 swaps into its
        // slot.
        let mut e = IncrementalEngine::with_threads(2).with_damage_threshold(1.0);
        let ap = NodeId(0);
        let g0 = units(
            &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (2, 4)],
            &[0, 2, 5, 3, 4],
        );
        e.price_epoch(&g0, ap, None);
        // Survivors: 0, 2, 3, old-4 (now 1). Old arcs among them:
        // (0,2), (2,3), (3,old4), (2,old4).
        let g1 = units(&[(0, 2), (2, 3), (3, 1), (2, 1)], &[0, 4, 5, 3]);
        let got = advance(
            &mut e,
            &g0,
            &g1,
            ap,
            Some(&NodeMap::leave_swap(5, NodeId(1))),
        );
        assert!(matches!(
            e.last_outcome(),
            EpochOutcome::WarmResize {
                born: 0,
                died: 1,
                ..
            }
        ));
        assert_eq!(*got, all_sources_payments(&g1, ap));
        // A further identity epoch reuses the warm tables.
        let got2 = advance(&mut e, &g1, &g1, ap, Some(&NodeMap::identity(4)));
        assert_eq!(e.last_outcome(), EpochOutcome::Reused);
        assert_eq!(got2, got);
    }

    #[test]
    fn warm_resize_past_threshold_falls_back() {
        let mut e = IncrementalEngine::with_threads(1).with_damage_threshold(0.0);
        let ap = NodeId(0);
        let g0 = units(&[(0, 1)], &[0, 4]);
        e.price_epoch(&g0, ap, None);
        let g1 = units(&[(0, 1), (1, 2)], &[0, 4, 5]);
        let got = advance(&mut e, &g0, &g1, ap, Some(&NodeMap::join(2, 1)));
        assert!(matches!(e.last_outcome(), EpochOutcome::Fallback { .. }));
        assert_eq!(*got, all_sources_payments(&g1, ap));
    }

    #[test]
    fn mapped_ap_departure_goes_cold() {
        // The AP itself cannot be mapped forward: the warm path refuses
        // and re-prices cold from scratch.
        let mut e = IncrementalEngine::with_threads(1).with_damage_threshold(1.0);
        let g0 = units(&[(0, 1), (1, 2)], &[0, 4, 6]);
        e.price_epoch(&g0, NodeId(2), None);
        let g1 = units(&[(0, 1)], &[0, 4]);
        let map = NodeMap::leave_swap(3, NodeId(2));
        let got = advance(&mut e, &g0, &g1, NodeId(0), Some(&map));
        assert_eq!(e.last_outcome(), EpochOutcome::Cold);
        assert_eq!(*got, all_sources_payments(&g1, NodeId(0)));
    }

    #[test]
    fn classify_marks_maximal_slices_once() {
        // Path tree 0 → 1 → 2 → 3: raising costs at 1 and 3 dirties
        // subtree(1) = {1,2,3}; the nested root 3 folds into it.
        let pairs = [(0, 1), (1, 2), (2, 3)];
        let old = units(&pairs, &[0, 2, 3, 4]);
        let new = units(&pairs, &[0, 5, 3, 9]);
        let mut cold = crate::AllSourcesEngine::with_threads(1);
        cold.price_all_sources(&old, NodeId(0));
        let (dist, parent) = cold.tables();
        let spt = truthcast_graph::Spt::from_parents(NodeId(0), parent);
        let iv = spt.intervals();
        let _ = dist;
        let delta = GraphDelta::between(&old, &new).unwrap();
        let region = classify_delta(&delta, &iv, parent, NodeId(0));
        assert_eq!(region.slices, 1);
        assert_eq!(region.dirty_count, 3);
        assert!(!region.dirty[0]);
        assert!(region.dirty[1] && region.dirty[2] && region.dirty[3]);
        assert!(region.decrease_seeds.is_empty());
    }
}
