//! # truthcast-core
//!
//! The primary contribution of *Truthful Low-Cost Unicast in Selfish
//! Wireless Networks* (Wang & Li, IPPS 2004), implemented in full:
//!
//! * [`naive`] / [`fast`] — the VCG unicast payment scheme
//!   `p_i^k = ‖P_{-v_k}‖ − ‖P‖ + d_k`, computed either by per-relay
//!   recomputation (the baseline and test oracle) or by **Algorithm 1**
//!   in `O((n + m) log n)` via the level decomposition ([`levels`]);
//! * [`directed`] — the Section III-F link-cost model with vector-type
//!   agents (power-controlled transmissions, asymmetric costs);
//! * [`collusion_resistant`] — the Section III-E neighborhood scheme `p̃`
//!   and its generalized `Q`-set form, plus feasibility checking;
//! * [`impossibility`] — Theorem 7 as executable witness search: plain VCG
//!   is provably not 2-agents strategyproof, and the library finds the
//!   colluding pair mechanically;
//! * [`resale`] — the Section III-H "resale the path" collusion, with the
//!   paper's Figure 4 instance reconstructed number-for-number;
//! * [`overpayment`] — TOR / IOR / worst-ratio metrics and the per-hop
//!   breakdown behind Figure 3;
//! * [`edge_agents`] — the Nisan–Ronen edge-agent baseline with
//!   Hershberger–Suri fast payments (the paper's \[18\]);
//! * [`baselines`] — the nuglet fixed-price scheme the paper critiques,
//!   measurable against VCG;
//! * [`fast_symmetric`] — Algorithm 1 ported to symmetric link costs
//!   (the paper's first simulation model);
//! * [`batch`] — the [`batch::PaymentEngine`]: many sessions over one
//!   topology, sharded across worker threads with per-worker sweep
//!   workspaces and a shared destination-table cache, bit-identical to
//!   the per-session algorithms at any thread count;
//! * [`delta`] — the [`delta::IncrementalEngine`]: all-to-AP pricing
//!   amortized across mobility epochs by consuming the diff of
//!   consecutive graphs ([`delta::EpochStep`]), repairing only the dirty
//!   subtree slices, and re-pricing only the
//!   affected branches — bit-identical to cold re-pricing at every epoch;
//! * [`mechanism_impl`] — adapters exposing both schemes through
//!   [`truthcast_mechanism::ScalarMechanism`] for black-box IC/IR and
//!   collusion checking.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod all_sources;
pub mod baselines;
pub mod batch;
pub mod collusion_resistant;
pub mod delta;
pub mod directed;
pub mod edge_agents;
pub mod fast;
pub mod fast_symmetric;
pub mod impossibility;
pub mod levels;
pub mod mechanism_impl;
pub mod naive;
pub mod overpayment;
pub mod pricing;
pub mod resale;
pub mod trace;

pub use all_sources::{all_sources_payments, AllSourcesEngine};
pub use baselines::{compare_fixed_vs_vcg, fixed_price_route, FixedPriceOutcome, SchemeComparison};
pub use batch::{PaymentEngine, SessionQuery};
pub use collusion_resistant::{
    khop_set, neighborhood_payments, neighborhood_set, q_set_payments, scheme_feasible,
    SetRemovalPricing,
};
pub use delta::{
    classify_delta, DirtyRegion, EpochOutcome, EpochStep, GraphDelta, IncrementalEngine,
};
pub use directed::{directed_payments, incurred_cost};
pub use edge_agents::{fast_edge_payments, naive_edge_payments, EdgePricing};
pub use fast::fast_payments;
pub use fast_symmetric::{fast_symmetric_payments, is_symmetric};
pub use mechanism_impl::{EdgeVcgUnicast, Engine, NeighborhoodUnicast, VcgUnicast};
pub use naive::{naive_payments, replacement_cost};
pub use overpayment::{
    adversarial_overpayment_instance, hop_buckets, overpayment_stats, HopBucket, OverpaymentStats,
    SourceOutcome,
};
pub use pricing::{most_vital_relay, UnicastPricing};
pub use resale::{find_resale_opportunities, paper_figure4_instance, ResaleOpportunity};
