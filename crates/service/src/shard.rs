//! Per-AP engine shards: one warm [`IncrementalEngine`] per access
//! point, pricing that AP's table each epoch and admitting settled
//! sessions through a bounded queue.
//!
//! A shard owns everything that is mutable about one access point — the
//! delta engine (warm distance tables, detour rows) and the admission
//! queue — behind coarse mutexes the serving
//! hot path never touches. Front-end workers only ever see the shard's
//! tables through the service's [`EpochCell`], so re-warming one AP's
//! tables never stalls pricing against any AP, including its own.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use truthcast_core::delta::{EpochOutcome, EpochStep, IncrementalEngine};
use truthcast_graph::{NodeId, NodeWeightedGraph};

use crate::epoch::{ApCell, ApSnapshot, EpochCell};
use crate::service::Settlement;

/// One access point's serving state: the epoch engine and the bounded
/// admission queue.
pub struct Shard {
    /// The access point this shard prices toward.
    pub ap: NodeId,
    /// This shard's index in the service's AP list — the anycast
    /// tie-break key, stamped into every snapshot.
    pub index: usize,
    /// The delta engine that re-warms this AP's tables each epoch.
    /// Locked only by the epoch loop; the serving path reads `cell`.
    engine: Mutex<IncrementalEngine>,
    /// The service's publication cell, shared by every shard.
    cell: Arc<EpochCell>,
    /// Admitted-but-undrained settlements, bounded by `capacity`.
    queue: Mutex<VecDeque<Settlement>>,
    capacity: usize,
    /// Sessions this shard admitted over its lifetime.
    settled: AtomicU64,
}

impl Shard {
    /// Builds a cold shard; its first [`Shard::price_epoch`] warms it.
    pub(crate) fn new(
        ap: NodeId,
        index: usize,
        threads: usize,
        damage_threshold: Option<f64>,
        capacity: usize,
        cell: Arc<EpochCell>,
    ) -> Shard {
        let mut engine = IncrementalEngine::with_threads(threads);
        if let Some(t) = damage_threshold {
            engine = engine.with_damage_threshold(t);
        }
        Shard {
            ap,
            index,
            engine: Mutex::new(engine),
            cell,
            queue: Mutex::new(VecDeque::new()),
            capacity,
            settled: AtomicU64::new(0),
        }
    }

    /// This AP's view of the service's publication cell.
    pub fn cell(&self) -> ApCell<'_> {
        ApCell {
            cell: &self.cell,
            index: self.index,
        }
    }

    /// Prices this AP for the epoch graph `g`, without publishing: the
    /// service publishes all k tables together. `step` is the service's
    /// one diff from the previous epoch graph to `g`, shared by every
    /// shard; the engine repairs from it, *through* the churn when it
    /// carries a [`truthcast_graph::NodeMap`]. `None` re-warms cold.
    pub(crate) fn price_epoch(
        &self,
        g: &NodeWeightedGraph,
        step: Option<&EpochStep>,
    ) -> ApSnapshot {
        let mut engine = self.engine.lock().unwrap_or_else(|e| e.into_inner());
        let pricing = engine.price_epoch(g, self.ap, step);
        let outcome = engine.last_outcome();
        match outcome {
            EpochOutcome::ColdResize { .. } => {
                truthcast_obs::add("service.epoch.cold_resizes", 1);
            }
            EpochOutcome::WarmResize { .. } => {
                truthcast_obs::add("service.epoch.warm_resizes", 1);
            }
            _ => {}
        }
        ApSnapshot {
            ap: self.ap,
            ap_index: self.index,
            outcome,
            pricing,
        }
    }

    /// Admits a settlement into the bounded queue. Returns `false` (and
    /// counts a shed) when the queue is at capacity — the caller turns
    /// that into [`ServeOutcome::Shed`].
    ///
    /// [`ServeOutcome::Shed`]: crate::service::ServeOutcome::Shed
    pub(crate) fn admit(&self, s: Settlement) -> bool {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        if q.len() >= self.capacity {
            drop(q);
            truthcast_obs::add("service.sessions.shed", 1);
            false
        } else {
            q.push_back(s);
            drop(q);
            self.settled.fetch_add(1, Ordering::Relaxed);
            truthcast_obs::add("service.sessions.settled", 1);
            true
        }
    }

    /// Drains every queued settlement. The back-end half of the queue:
    /// the load generator calls this between rounds, a real deployment
    /// would charge payments here.
    pub fn drain(&self) -> Vec<Settlement> {
        let drained: Vec<Settlement> = {
            let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.drain(..).collect()
        };
        if !drained.is_empty() {
            truthcast_obs::add("service.queue.drained", drained.len() as u64);
        }
        drained
    }

    /// Lifetime admitted-session count.
    pub fn settled(&self) -> u64 {
        self.settled.load(Ordering::Relaxed)
    }
}
