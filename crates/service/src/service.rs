//! The multi-tenant front-end: anycast session admission over k per-AP
//! shards.
//!
//! [`PaymentService::begin_epoch`] prices all k shards first and then
//! publishes their tables together as one [`ServiceSnapshot`]: one
//! publication, one generation per epoch. [`PaymentService::serve_batch`]
//! is the hot path. It reads that snapshot **once** per batch —
//! amortizing the cell read over the whole batch and, more importantly,
//! pinning the batch to one generation so a swap landing mid-batch
//! cannot make two sessions from the same batch price against different
//! epochs, and no session is ever priced against two index spaces.
//! Pricing is then a pure function of (sources, snapshot):
//! [`truthcast_rt::par_map`] fans the argmin over the front-end workers
//! and collects results in index order, so the settled prices are
//! bit-identical at any thread count — the same invariant every engine
//! below this layer already holds. Only after pricing does the
//! sequential admission loop walk the batch in index order and apply
//! backpressure, which makes shed decisions deterministic too: whether
//! session i is shed depends only on the sessions before it in the
//! batch, never on worker scheduling.
//!
//! Anycast settlement: a session from source `v` considers every AP
//! whose table can price `v` and settles at the one with the cheapest
//! declared least-cost-path cost, breaking exact-cost ties toward the
//! lowest AP index. This is exactly
//! `argmin_k all_sources_payments(g, ap_k)[v]` — the differential
//! battery in `tests/service_vs_library.rs` holds the service to that
//! oracle bit-for-bit.

use std::sync::{Arc, Mutex};

use truthcast_core::delta::{EpochOutcome, EpochStep};
use truthcast_core::UnicastPricing;
use truthcast_graph::{NodeId, NodeMap, NodeWeightedGraph};
use truthcast_rt::{default_threads, par_map};

use crate::epoch::{ApSnapshot, EpochCell, ServiceSnapshot};
use crate::shard::Shard;

/// Configuration for a [`PaymentService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// The access points, one engine shard each. Order matters: the AP's
    /// position here is its shard index, the anycast tie-break key.
    pub aps: Vec<NodeId>,
    /// Worker threads for batch pricing and per-shard epoch warms.
    pub threads: usize,
    /// Bounded admission-queue capacity per shard; sessions settling on
    /// a full shard are shed.
    pub queue_capacity: usize,
    /// Damage threshold override for the shard engines (fraction of n
    /// above which an epoch's repair falls back to a cold sweep).
    /// `None` keeps the engine default,
    /// [`truthcast_core::delta::DEFAULT_DAMAGE_THRESHOLD`].
    /// Purely a performance knob — settled prices are identical either
    /// way.
    pub damage_threshold: Option<f64>,
}

impl ServiceConfig {
    /// A config with `aps`, default threads, and an effectively unbounded
    /// queue.
    pub fn new(aps: Vec<NodeId>) -> ServiceConfig {
        ServiceConfig {
            aps,
            threads: default_threads(),
            queue_capacity: usize::MAX,
            damage_threshold: None,
        }
    }

    /// Sets the worker-thread count.
    pub fn threads(mut self, threads: usize) -> ServiceConfig {
        self.threads = threads.max(1);
        self
    }

    /// Sets the per-shard bounded-queue capacity.
    pub fn queue_capacity(mut self, capacity: usize) -> ServiceConfig {
        self.queue_capacity = capacity;
        self
    }

    /// Overrides the shard engines' damage threshold.
    pub fn damage_threshold(mut self, threshold: f64) -> ServiceConfig {
        self.damage_threshold = Some(threshold);
        self
    }
}

/// A session that settled: where it was admitted and at what price.
#[derive(Clone, Debug)]
pub struct Settlement {
    /// The source node that opened the session.
    pub source: NodeId,
    /// Index of the winning shard in [`ServiceConfig::aps`].
    pub ap_index: usize,
    /// The winning access point.
    pub ap: NodeId,
    /// Generation of the snapshot the session priced against — the
    /// epoch the quoted payments are valid for.
    pub generation: u64,
    /// The full VCG pricing toward the winning AP (path, LCP cost,
    /// per-relay payments).
    pub pricing: UnicastPricing,
}

/// Per-session result of [`PaymentService::serve_batch`].
#[derive(Clone, Debug)]
pub enum ServeOutcome {
    /// The session priced, won an AP, and was admitted.
    Settled(Settlement),
    /// The session priced and won an AP, but that shard's bounded queue
    /// was full — backpressure shed it.
    Shed {
        /// Index of the shard that would have admitted the session.
        ap_index: usize,
    },
    /// No AP's current snapshot can price this source (disconnected, or
    /// the source is itself an AP / outside the epoch's node set).
    Unreachable,
}

impl ServeOutcome {
    /// The settlement, if the session settled.
    pub fn settlement(&self) -> Option<&Settlement> {
        match self {
            ServeOutcome::Settled(s) => Some(s),
            _ => None,
        }
    }
}

/// The multi-tenant payment service: k per-AP engine shards behind an
/// anycast batch front-end. See the module docs for the serving
/// protocol and [`crate::epoch`] for the swap protocol.
pub struct PaymentService {
    shards: Vec<Shard>,
    /// The one publication point: every epoch's k tables, together.
    cell: Arc<EpochCell>,
    /// Held from pricing through publication, so the cell has a single
    /// writer and concurrent `begin_epoch` calls run one after another.
    /// Guards the graph every shard priced last: the one previous graph
    /// each epoch is diffed against, once for all k shards. `None` until
    /// set-up and after an epoch whose pricing panicked, which makes the
    /// next epoch cold on every shard.
    epoch_lock: Mutex<Option<NodeWeightedGraph>>,
    threads: usize,
}

impl PaymentService {
    /// Builds the service and publishes generation 1, priced from `g0`.
    /// Also registers the service's counters with [`truthcast_obs`] so
    /// `summary_table` reports zeros for events that never fired (a shed
    /// counter that prints `0` is evidence of headroom; one that is
    /// absent is evidence of nothing).
    ///
    /// # Panics
    /// If `cfg.aps` is empty, contains a duplicate, or names a node
    /// outside `g0`.
    pub fn new(cfg: &ServiceConfig, g0: &NodeWeightedGraph) -> PaymentService {
        assert!(!cfg.aps.is_empty(), "a service needs at least one AP");
        for (i, &ap) in cfg.aps.iter().enumerate() {
            assert!(
                ap.index() < g0.num_nodes(),
                "AP {ap:?} is outside the initial graph"
            );
            assert!(
                !cfg.aps[..i].contains(&ap),
                "AP {ap:?} appears twice; shards must own distinct APs"
            );
        }
        for name in [
            "service.sessions.offered",
            "service.sessions.settled",
            "service.sessions.shed",
            "service.sessions.unreachable",
            "service.epoch.swaps",
            "service.epoch.blocked_readers",
            "service.epoch.reader_retries",
            "service.epoch.cold_resizes",
            "service.epoch.warm_resizes",
            "service.queue.drained",
            "service.load.stalls",
        ] {
            truthcast_obs::register(name);
        }
        // Split the warm-path thread budget across shards: begin_epoch
        // fans the k warms out in parallel, so handing every shard the
        // full budget would run up to k×threads workers at once. Each
        // engine's output is thread-count independent (the project
        // invariant), so the split never changes a price.
        let warm_threads = (cfg.threads.max(1) / cfg.aps.len()).max(1);
        let cell = Arc::new(EpochCell::new());
        let shards = cfg
            .aps
            .iter()
            .enumerate()
            .map(|(i, &ap)| {
                Shard::new(
                    ap,
                    i,
                    warm_threads,
                    cfg.damage_threshold,
                    cfg.queue_capacity,
                    Arc::clone(&cell),
                )
            })
            .collect();
        let service = PaymentService {
            shards,
            cell,
            epoch_lock: Mutex::new(None),
            threads: cfg.threads.max(1),
        };
        service.advance(g0, None);
        service
    }

    /// The per-AP shards, in AP-list order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Number of access points (= shards).
    pub fn num_aps(&self) -> usize {
        self.shards.len()
    }

    /// Advances every shard to the epoch graph `g`: the service diffs `g`
    /// against the previous epoch's graph once ([`EpochStep::between`]),
    /// each shard repairs its table from that one step, then all k
    /// tables are published together as the next generation. Shards
    /// warm in parallel across the worker pool; each
    /// shard's engine was built with `threads / k` workers (floor, min
    /// 1), so the total never exceeds the configured budget — with
    /// k ≥ threads every warm runs single-threaded and the whole budget
    /// goes to the fan-out. Serving continues throughout: `&self`, and
    /// readers never block on a swap.
    ///
    /// Returns each shard's [`EpochOutcome`], in shard order.
    pub fn begin_epoch(&self, g: &NodeWeightedGraph) -> Vec<EpochOutcome> {
        self.advance(g, None)
    }

    /// Advances every shard to the epoch graph `g` *through churn*: the
    /// [`NodeMap`] carries node identities from the previous epoch's
    /// index space into `g`'s, so each shard's engine repairs across the
    /// join/leave instead of re-warming cold
    /// ([`EpochOutcome::WarmResize`] instead of
    /// [`EpochOutcome::ColdResize`], bit-identical tables either way).
    ///
    /// # Panics
    /// If any shard's AP does not keep its index under `map` — APs are
    /// the service's fixed infrastructure; churn is for the client node
    /// population. (Encode AP-preserving renumberings accordingly, e.g.
    /// keep APs in the low indices so `leave_swap` never moves them.)
    /// Also if the map's lengths do not match `g` and the previous
    /// epoch. Both are checked before any shard prices, so a rejected
    /// epoch publishes nothing and changes nothing: the service keeps
    /// serving the previous generation, and the next valid epoch still
    /// repairs warm.
    pub fn begin_epoch_mapped(&self, g: &NodeWeightedGraph, map: &NodeMap) -> Vec<EpochOutcome> {
        assert_eq!(
            map.new_len(),
            g.num_nodes(),
            "map new_len must match the epoch graph"
        );
        for s in &self.shards {
            assert_eq!(
                map.to_new(s.ap),
                Some(s.ap),
                "AP {:?} must keep its index across a mapped epoch",
                s.ap
            );
        }
        self.advance(g, Some(map))
    }

    /// Diffs `g` against the previous graph once, prices all k shards
    /// from that one step, then publishes their tables as one
    /// generation. Nothing is published until every shard has priced.
    fn advance(&self, g: &NodeWeightedGraph, map: Option<&NodeMap>) -> Vec<EpochOutcome> {
        let _span = truthcast_obs::span("service.begin_epoch");
        // A panic under this lock leaves `prev` valid: untouched before
        // the take below, `None` after it.
        let mut prev = self.epoch_lock.lock().unwrap_or_else(|e| e.into_inner());
        // The step constructor checks the map against the previous graph,
        // so a map that does not fit panics here, before anything changes.
        let step = prev.as_ref().and_then(|p| EpochStep::between(p, g, map));
        // Taken out while the shards price: if one panics, the service
        // has no previous graph and every shard's next epoch is cold, so
        // no engine repairs from a diff against a graph it never priced.
        // An unchanged graph is kept instead of cloned.
        let unchanged = prev
            .take()
            .filter(|_| step.as_ref().is_some_and(EpochStep::is_empty));
        self.cell.retire_inactive();
        let k = self.shards.len();
        let aps = par_map(k, self.threads.min(k), |i| {
            self.shards[i].price_epoch(g, step.as_ref())
        });
        *prev = Some(unchanged.unwrap_or_else(|| g.clone()));
        let outcomes = aps.iter().map(|a| a.outcome).collect();
        self.cell.publish(aps);
        outcomes
    }

    /// The published generation: 1 after set-up, plus one per epoch.
    pub fn generation(&self) -> u64 {
        self.cell.generation()
    }

    /// The current snapshot: all k tables of the published generation.
    pub fn snapshot(&self) -> Arc<ServiceSnapshot> {
        self.cell.read()
    }

    /// Prices and admits a batch of sessions; `out[i]` is session `i`'s
    /// outcome. See the module docs for the determinism argument.
    pub fn serve_batch(&self, sources: &[NodeId]) -> Vec<ServeOutcome> {
        let _span = truthcast_obs::span("service.serve_batch");
        truthcast_obs::add("service.sessions.offered", sources.len() as u64);
        // One snapshot for the whole batch: one generation, one node set.
        let snap = self.cell.read();
        let priced = par_map(sources.len(), self.threads, |i| {
            settle_one(sources[i], &snap.aps)
        });
        let mut out = Vec::with_capacity(priced.len());
        for (i, won) in priced.into_iter().enumerate() {
            let outcome = match won {
                None => {
                    truthcast_obs::add("service.sessions.unreachable", 1);
                    ServeOutcome::Unreachable
                }
                Some((ap_index, pricing)) => {
                    let s = Settlement {
                        source: sources[i],
                        ap_index,
                        ap: snap.aps[ap_index].ap,
                        generation: snap.generation,
                        pricing,
                    };
                    if self.shards[ap_index].admit(s.clone()) {
                        ServeOutcome::Settled(s)
                    } else {
                        ServeOutcome::Shed { ap_index }
                    }
                }
            };
            out.push(outcome);
        }
        out
    }

    /// Drains every shard's admission queue, in shard order.
    pub fn drain(&self) -> Vec<Settlement> {
        let mut all = Vec::new();
        for s in &self.shards {
            all.extend(s.drain());
        }
        all
    }
}

/// The anycast argmin: cheapest declared LCP cost across the k tables,
/// exact-cost ties broken toward the lowest AP index (strict `<` while
/// scanning in index order). The k tables come from one snapshot, so
/// every index names the same physical node in all of them. Pure — no
/// locks, no atomics on the decision path — so the batch fan-out stays
/// bit-deterministic.
fn settle_one(source: NodeId, aps: &[ApSnapshot]) -> Option<(usize, UnicastPricing)> {
    let mut best: Option<(usize, &UnicastPricing)> = None;
    for (i, snap) in aps.iter().enumerate() {
        let Some(p) = snap.pricing.get(source.index()).and_then(Option::as_ref) else {
            continue;
        };
        match best {
            Some((_, b)) if p.lcp_cost >= b.lcp_cost => {}
            _ => best = Some((i, p)),
        }
    }
    best.map(|(i, p)| (i, p.clone()))
}
