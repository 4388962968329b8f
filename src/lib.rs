//! # truthcast
//!
//! A from-scratch Rust implementation of *Truthful Low-Cost Unicast in
//! Selfish Wireless Networks* (Wang & Li, IPPS 2004): strategyproof VCG
//! routing payments for selfish wireless ad-hoc networks, the fast
//! `O(n log n + m)` payment algorithm, distributed and cheat-proof
//! protocol variants, collusion analysis, and the paper's full evaluation
//! harness.
//!
//! This crate is a facade re-exporting the workspace members; see the
//! README for a tour and `DESIGN.md` for the architecture.
//!
//! ## Example: price a unicast
//!
//! ```
//! use truthcast::core::fast_payments;
//! use truthcast::graph::{Cost, NodeId, NodeWeightedGraph};
//!
//! // Two branches from node 3 to the access point 0: via relay 1
//! // (cost 5) or via relay 2 (cost 7).
//! let net = NodeWeightedGraph::from_pairs_units(
//!     &[(0, 1), (1, 3), (0, 2), (2, 3)],
//!     &[0, 5, 7, 0],
//! );
//! let pricing = fast_payments(&net, NodeId(3), NodeId(0)).unwrap();
//!
//! // The cheap relay carries the traffic and is paid the Vickrey price:
//! // its declared cost (5) plus its marginal value (7 − 5 = 2).
//! assert_eq!(pricing.path, vec![NodeId(3), NodeId(1), NodeId(0)]);
//! assert_eq!(pricing.payment_to(NodeId(1)), Cost::from_units(7));
//!
//! // Truth-telling is dominant: inflating its declaration to 6 leaves
//! // the payment unchanged...
//! let inflated = net.with_declared(NodeId(1), Cost::from_units(6));
//! let p2 = fast_payments(&inflated, NodeId(3), NodeId(0)).unwrap();
//! assert_eq!(p2.payment_to(NodeId(1)), Cost::from_units(7));
//!
//! // ...and inflating past the competitor evicts it entirely.
//! let evicted = net.with_declared(NodeId(1), Cost::from_units(8));
//! let p3 = fast_payments(&evicted, NodeId(3), NodeId(0)).unwrap();
//! assert_eq!(p3.path, vec![NodeId(3), NodeId(2), NodeId(0)]);
//! assert_eq!(p3.payment_to(NodeId(1)), Cost::ZERO);
//! ```
//!
//! ## Example: all-to-AP pricing with threads
//!
//! Every node pricing a route to one access point should go through the
//! [`core::all_sources::AllSourcesEngine`], which prices all sources from
//! one shared AP-rooted sweep and shards the per-relay detour runs across
//! threads — with output bit-identical to the per-session calls at any
//! thread count. (Sessions with mixed destinations go through
//! [`core::batch::PaymentEngine::price_batch`].)
//!
//! ```
//! use truthcast::core::all_sources::AllSourcesEngine;
//! use truthcast::graph::{NodeId, NodeWeightedGraph};
//!
//! let net = NodeWeightedGraph::from_pairs_units(
//!     &[(0, 1), (1, 3), (0, 2), (2, 3)],
//!     &[0, 5, 7, 0],
//! );
//! let mut engine = AllSourcesEngine::with_threads(4);
//! let priced = engine.price_all_sources(&net, NodeId(0));
//! assert_eq!(priced[0], None); // the access point itself
//! assert!(priced[3].is_some());
//! ```

#![forbid(unsafe_code)]

pub use truthcast_core as core;
pub use truthcast_distsim as distsim;
pub use truthcast_experiments as experiments;
pub use truthcast_graph as graph;
pub use truthcast_mechanism as mechanism;
pub use truthcast_obs as obs;
pub use truthcast_protocol as protocol;
pub use truthcast_rt as rt;
pub use truthcast_service as service;
pub use truthcast_wireless as wireless;
