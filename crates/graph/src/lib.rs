//! # truthcast-graph
//!
//! Graph substrate for the `truthcast` reproduction of *Truthful Low-Cost
//! Unicast in Selfish Wireless Networks* (Wang & Li, IPPS 2004).
//!
//! Everything the mechanism layer needs from graph theory lives here,
//! implemented from scratch:
//!
//! * [`cost::Cost`] — exact fixed-point costs with an absorbing
//!   infinity, so mechanism invariants can be asserted without float drift;
//! * [`adjacency::Adjacency`] / [`node_weighted::NodeWeightedGraph`] /
//!   [`link_weighted::LinkWeightedDigraph`] — CSR topologies for the
//!   paper's two network models (node-cost agents, and vector-type agents
//!   owning directed link costs);
//! * [`heap::IndexedHeap`] — a decrease-key/delete binary heap used by
//!   Algorithm 1's sliding crossing-edge window and restricted searches,
//!   and by the incremental engine's repair queue;
//! * [`radix_heap::RadixHeap`] — a monotone bucket queue over fixed-point
//!   costs, the Dijkstra sweep engine (`O(m + n log C)`);
//! * [`dijkstra`] / [`node_dijkstra`] — shortest-path sweeps with node
//!   masks (agent removal) and early exit;
//! * [`workspace::DijkstraWorkspace`] — reusable sweep buffers with
//!   epoch-based `O(1)` clearing, so batch callers pay zero allocations
//!   per query (the one-shot sweeps run through the same code path);
//! * [`spt::Spt`] — shortest-path trees with child lists and preorder
//!   traversal for the level assignment;
//! * [`connectivity`] — biconnectivity (the paper's monopoly-freeness
//!   assumption) and masked reachability;
//! * [`generators`] / [`geometry`] — the paper's random wireless
//!   topologies and structured test graphs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adjacency;
pub mod bellman_ford;
pub mod connectivity;
pub mod cost;
pub mod dijkstra;
pub mod generators;
pub mod geometry;
pub mod heap;
pub mod ids;
pub mod io;
pub mod link_weighted;
pub mod mask;
pub mod node_dijkstra;
pub mod node_map;
pub mod node_weighted;
pub mod radix_heap;
pub mod spt;
pub mod sweep_obs;
pub mod workspace;

pub use adjacency::{adjacency_from_edges, adjacency_from_pairs, Adjacency, AdjacencyBuilder};
pub use cost::Cost;
pub use ids::{node_ids, NodeId};
pub use link_weighted::{LinkWeightedDigraph, PackedArc};
pub use mask::NodeMask;
pub use node_map::NodeMap;
pub use node_weighted::NodeWeightedGraph;
pub use radix_heap::RadixHeap;
pub use spt::{Spt, SubtreeIntervals};
pub use workspace::DijkstraWorkspace;
