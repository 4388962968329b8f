//! The epoch-swapped pricing snapshot: the one publication cell the
//! whole service serves from.
//!
//! The serving layer's core concurrency problem is that pricing tables
//! are rebuilt every mobility epoch while the front-end keeps serving.
//! The classic answer is read-copy-update: readers price against an
//! immutable, reference-counted snapshot; the epoch loop builds the next
//! epoch's snapshot *off to the side* and publishes it with a single
//! pointer exchange. Readers that raced the swap drain naturally — they
//! hold an [`Arc`] to the retired snapshot, which is freed when the last
//! of them finishes — and every settlement carries the snapshot's
//! generation stamp so staleness is visible, never silent.
//!
//! One [`ServiceSnapshot`] holds all k access points' tables for one
//! epoch, so a reader that loads it sees k tables over the same node
//! set and the same generation: there is nothing to reconcile.
//!
//! The cell is structurally non-blocking for readers without `unsafe`:
//! two slots, each behind a [`RwLock`], plus an atomic generation. The
//! active slot is `generation & 1`; the writer only ever writes the
//! *inactive* slot, and releases its write lock **before** bumping the
//! generation, so a reader addressing the slot its freshly-loaded
//! generation names can never collide with the writer. Readers never
//! collide with each other either — read locks are shared. The only way
//! `try_read` can fail is a reader that stalled between loading the
//! generation and touching the slot for so long that the writer came
//! back for that slot; the retry loop re-loads the generation and lands
//! on the fresh slot. A reader that somehow exhausts the spin budget
//! yields and counts itself under `service.epoch.blocked_readers` — the
//! counter the epoch-swap acceptance test pins at zero.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, TryLockError};

use truthcast_core::delta::EpochOutcome;
use truthcast_core::UnicastPricing;
use truthcast_graph::NodeId;

/// Spin attempts before a reader declares itself blocked and yields.
const SPIN_BUDGET: u32 = 128;

/// One access point's immutable pricing state for one epoch: every
/// source's unicast pricing toward this AP, pre-computed by the shard's
/// warm [`IncrementalEngine`] and shared read-only with every front-end
/// worker. Cloning it is cheap: the table is behind an [`Arc`].
///
/// [`IncrementalEngine`]: truthcast_core::delta::IncrementalEngine
#[derive(Clone, Debug)]
pub struct ApSnapshot {
    /// The access point this snapshot prices toward.
    pub ap: NodeId,
    /// The owning shard's index in the service's AP list — the anycast
    /// tie-break key.
    pub ap_index: usize,
    /// How the shard's engine produced this epoch (cold, repaired,
    /// reused, resize, fallback) — churn epochs are reported, not hidden.
    pub outcome: EpochOutcome,
    /// `pricing[v]` is source `v`'s pricing toward [`ApSnapshot::ap`],
    /// bit-identical to `all_sources_payments(g, ap)[v]`; `None` for the
    /// AP itself and unreachable sources. Shared with the shard's engine:
    /// an epoch that changed nothing for this AP publishes the same
    /// table again.
    pub pricing: Arc<Vec<Option<UnicastPricing>>>,
}

/// Every access point's tables for one epoch, published together.
#[derive(Debug)]
pub struct ServiceSnapshot {
    /// Publications so far, this one included (1 = the service's
    /// set-up epoch).
    pub generation: u64,
    /// One snapshot per shard, in AP-list order.
    pub aps: Vec<ApSnapshot>,
}

/// The generation-stamped publication point between the service's epoch
/// loop (single writer) and every front-end worker (many readers). See
/// the module docs for the non-blocking protocol.
pub struct EpochCell {
    generation: AtomicU64,
    slots: [RwLock<Arc<ServiceSnapshot>>; 2],
}

impl EpochCell {
    /// An empty cell at generation 0. The service publishes its set-up
    /// epoch (generation 1) before it hands out a reference, so no
    /// reader observes the empty snapshot.
    pub(crate) fn new() -> EpochCell {
        let empty = Arc::new(ServiceSnapshot {
            generation: 0,
            aps: Vec::new(),
        });
        EpochCell {
            generation: AtomicU64::new(0),
            slots: [RwLock::new(empty.clone()), RwLock::new(empty)],
        }
    }

    /// The generation of the most recently published snapshot. One
    /// atomic load — callers poll this to skip a re-read when nothing
    /// swapped.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// A reference to the current snapshot. Never blocks on a swap in
    /// progress: the writer never holds the active slot's lock, and
    /// read locks are shared between readers (see module docs). A reader
    /// that raced a swap may get the snapshot one generation behind the
    /// freshest — a complete, consistent set of tables either way.
    pub fn read(&self) -> Arc<ServiceSnapshot> {
        let mut spins = 0u32;
        let snap = loop {
            let gen = self.generation.load(Ordering::Acquire);
            match self.slots[(gen & 1) as usize].try_read() {
                Ok(slot) => break slot.clone(),
                Err(TryLockError::Poisoned(p)) => break p.into_inner().clone(),
                Err(TryLockError::WouldBlock) => {
                    spins += 1;
                    if spins <= SPIN_BUDGET {
                        std::hint::spin_loop();
                    } else {
                        std::thread::yield_now();
                    }
                }
            }
        };
        if spins > 0 {
            truthcast_obs::add("service.epoch.reader_retries", u64::from(spins));
            if spins > SPIN_BUDGET {
                truthcast_obs::add("service.epoch.blocked_readers", 1);
            }
        }
        snap
    }

    /// Points the inactive slot at the current snapshot, releasing the
    /// previous generation (once its last reader finishes) before the
    /// next one is priced: at most two generations of tables are ever
    /// alive, the published one and the one being built.
    pub(crate) fn retire_inactive(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        let current = self.slots[(gen & 1) as usize]
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .clone();
        *self.slots[((gen + 1) & 1) as usize]
            .write()
            .unwrap_or_else(|p| p.into_inner()) = current;
    }

    /// Publishes `aps` as the next generation and returns it. The
    /// snapshot is written into the inactive slot and the write lock
    /// released, then the generation bump makes it visible — the pointer
    /// exchange is the entire reader-visible critical section.
    ///
    /// Single-writer: the caller holds the service's epoch lock; two
    /// racing publishers could otherwise write the same slot.
    pub(crate) fn publish(&self, aps: Vec<ApSnapshot>) -> u64 {
        let generation = self.generation.load(Ordering::Acquire) + 1;
        let next = Arc::new(ServiceSnapshot { generation, aps });
        *self.slots[(generation & 1) as usize]
            .write()
            .unwrap_or_else(|p| p.into_inner()) = next;
        self.generation.store(generation, Ordering::Release);
        truthcast_obs::add("service.epoch.swaps", 1);
        generation
    }
}

/// One access point's view of the service's [`EpochCell`], as handed out
/// by [`Shard::cell`](crate::Shard::cell).
pub struct ApCell<'a> {
    pub(crate) cell: &'a EpochCell,
    pub(crate) index: usize,
}

impl ApCell<'_> {
    /// The service's current generation.
    pub fn generation(&self) -> u64 {
        self.cell.generation()
    }

    /// This access point's table in the current snapshot. For a
    /// consistent view of several access points, read the cell once
    /// through [`PaymentService::snapshot`](crate::PaymentService::snapshot).
    pub fn read(&self) -> ApSnapshot {
        self.cell.read().aps[self.index].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aps() -> Vec<ApSnapshot> {
        vec![ApSnapshot {
            ap: NodeId(0),
            ap_index: 0,
            outcome: EpochOutcome::Cold,
            pricing: Arc::new(vec![None, None]),
        }]
    }

    #[test]
    fn read_returns_latest_published() {
        let cell = EpochCell::new();
        assert_eq!(cell.generation(), 0);
        for generation in 1..=3 {
            assert_eq!(cell.publish(aps()), generation);
            assert_eq!(cell.generation(), generation);
            assert_eq!(cell.read().generation, generation);
        }
        let view = ApCell {
            cell: &cell,
            index: 0,
        };
        assert_eq!(view.generation(), 3);
        assert_eq!(view.read().pricing.len(), 2);
    }

    #[test]
    fn retired_snapshots_drain_when_readers_finish() {
        let cell = EpochCell::new();
        cell.publish(aps());
        let held = cell.read();
        cell.publish(aps());
        cell.retire_inactive();
        // The stale reader still sees a complete generation-1 snapshot,
        // but the cell let go of it: both slots hold generation 2.
        assert_eq!(held.generation, 1);
        assert_eq!(Arc::strong_count(&held), 1);
        assert_eq!(Arc::strong_count(&cell.read()), 3);
        drop(held);
        assert_eq!(cell.read().generation, 2);
    }
}
