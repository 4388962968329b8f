//! Reproduction of the renumbering-leave divergence the pipeline
//! benchmark's `churn` workload avoids (see `PIPELINE.md`).
//!
//! ```text
//! cargo run --release --offline --manifest-path pipebench/Cargo.toml \
//!     --example renumber_leave -- [SEED...]        (default: seeds 0 to 11)
//! ```
//!
//! The deployment is the benchmark's UDG (about 12 neighbours per node,
//! costs from U[1, 50)) at n = 256 with k = 4 access points at indices
//! 0..4 and the default damage threshold. Every epoch one random non-AP
//! node leaves by `swap_remove`, so the last node is renumbered into the
//! hole, and the service repairs through `begin_epoch_mapped` with the
//! matching `NodeMap::leave_swap`. After each epoch every shard's
//! snapshot is compared with `all_sources_payments` on the epoch graph.
//! One line per seed reports the first divergent epoch and whether the
//! paths and LCP costs still agree; a process abort during a seed is
//! itself a finding, so run one seed per process to see every seed.
//!
//! On some seeds the repair loops and grows one vector without bound. So
//! that such a seed aborts instead of taking the host's memory, any
//! single allocation above [`ALLOC_CAP`] fails, which aborts the process
//! with "memory allocation of N bytes failed".

use std::alloc::{GlobalAlloc, Layout, System};

use truthcast_core::all_sources_payments;
use truthcast_graph::generators::{pairs_within_range, random_placement};
use truthcast_graph::geometry::{Point, Region};
use truthcast_graph::{adjacency_from_pairs, Cost, NodeId, NodeMap, NodeWeightedGraph};
use truthcast_pipebench::RANGE;
use truthcast_rt::{Rng, SeedableRng, SmallRng};
use truthcast_service::{PaymentService, ServiceConfig};

const N: usize = 256;
const K: usize = 4;
const EPOCHS: usize = 32;

/// Largest single allocation: a correct run at n = 256 never asks for
/// more than a few MiB at once.
const ALLOC_CAP: usize = 256 << 20;

/// The system allocator, refusing any allocation above [`ALLOC_CAP`].
struct Capped;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; a refusal returns null, which the contract
// allows and which the standard library turns into an abort.
unsafe impl GlobalAlloc for Capped {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() > ALLOC_CAP {
            return std::ptr::null_mut();
        }
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc` or `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > ALLOC_CAP {
            return std::ptr::null_mut();
        }
        // SAFETY: `ptr` came from `System`; the caller's obligations on
        // `layout` and `new_size` pass through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Capped = Capped;

fn graph(points: &[Point], costs: &[Cost]) -> NodeWeightedGraph {
    let pairs: Vec<(u32, u32)> = pairs_within_range(points, RANGE)
        .into_iter()
        .map(|(u, v)| (u.0, v.0))
        .collect();
    NodeWeightedGraph::new(adjacency_from_pairs(points.len(), &pairs), costs.to_vec())
}

/// First divergence of one seed's trace: `(epoch, renumbered, differing
/// sources, paths and LCP costs all equal)`.
fn first_divergence(seed: u64) -> Option<(usize, bool, usize, bool)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let side = (N as f64 * RANGE * RANGE * std::f64::consts::PI / 12.0).sqrt();
    let mut points = random_placement(N, Region::new(side, side), &mut rng);
    let mut costs: Vec<Cost> = (0..N)
        .map(|_| Cost::from_f64(rng.gen_range(1.0..50.0)))
        .collect();
    let aps: Vec<NodeId> = (0..K).map(NodeId::new).collect();
    let service = PaymentService::new(
        &ServiceConfig::new(aps.clone()).threads(1),
        &graph(&points, &costs),
    );
    for epoch in 1..=EPOCHS {
        let old_n = points.len();
        let dead = rng.gen_range(K..old_n);
        points.swap_remove(dead);
        costs.swap_remove(dead);
        let g = graph(&points, &costs);
        service.begin_epoch_mapped(&g, &NodeMap::leave_swap(old_n, NodeId::new(dead)));
        let (mut differing, mut same_routes) = (0usize, true);
        for (shard, &ap) in service.shards().iter().zip(&aps) {
            let snap = shard.cell().read();
            for (got, want) in snap.pricing.iter().zip(all_sources_payments(&g, ap)) {
                if *got != want {
                    differing += 1;
                    same_routes &= match (got, &want) {
                        (Some(a), Some(b)) => a.path == b.path && a.lcp_cost == b.lcp_cost,
                        _ => false,
                    };
                }
            }
        }
        if differing > 0 {
            return Some((epoch, dead + 1 != old_n, differing, same_routes));
        }
    }
    None
}

fn main() {
    let seeds: Vec<u64> = match std::env::args()
        .skip(1)
        .map(|s| s.parse())
        .collect::<Result<Vec<u64>, _>>()
    {
        Ok(s) if !s.is_empty() => s,
        Ok(_) => (0..12).collect(),
        Err(e) => {
            eprintln!("error: seeds are u64 values: {e}");
            std::process::exit(2);
        }
    };
    for seed in seeds {
        match first_divergence(seed) {
            None => println!("seed {seed}: {EPOCHS} epochs, no divergence"),
            Some((epoch, renumbered, differing, same_routes)) => println!(
                "seed {seed}: epoch {epoch} diverges (leave renumbered a survivor: {renumbered}); \
                 {differing} shard-source entries differ; paths and LCP costs equal: {same_routes}"
            ),
        }
    }
}
