//! # truthcast-rt
//!
//! The hermetic runtime under every randomized and measured artifact in
//! this repository. The build environment is offline — no registry, no
//! `rand`, no `proptest`, no `criterion` — so the three capabilities
//! those crates provided live here, in `std`-only form:
//!
//! * [`rng`] — deterministic seedable randomness: SplitMix64 seed
//!   expansion into a xoshiro256++ core ([`SmallRng`]), with the
//!   `gen_range` / `gen_bool` / shuffle sampling surface the generators
//!   and simulations use. Streams are part of the repo's reproducibility
//!   contract: a printed `u64` seed reconstructs any instance.
//! * [`prop`] — a property-testing harness: the [`forall!`] runner with
//!   strategy combinators, per-test deterministic seed streams,
//!   seed-reporting on failure (`TRUTHCAST_SEED=… cargo test …`
//!   reproduces the exact case), and greedy shrinking for integers and
//!   vectors.
//! * [`mod@bench`] — a micro-benchmark [`bench::Harness`]: calibrated warmup
//!   plus N timed samples, median/p95 summaries, and `BENCH_<group>.json`
//!   reports for cross-PR perf trajectories.
//! * [`par`] — a dependency-free parallel runner over `std::thread::scope`
//!   with work stealing and per-worker scratch state, used by the batch
//!   payment engine and the experiment sweeps.
//!
//! Everything in this crate is deterministic by construction: no
//! wall-clock entropy, no platform-dependent hashing feeds any generated
//! value, and although [`par`] runs work on threads, its results are
//! re-sorted by item index, so thread interleaving never reaches a
//! caller-visible value either.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bench;
pub mod par;
pub mod prop;
pub mod rng;

pub use par::{default_threads, par_map, par_map_with};
pub use prop::{
    bools, cases, just, one_of, subsequence, vec_of, BoxedStrategy, CaseResult, Config, Strategy,
};
pub use rng::{
    mix_u64, Rng, RngCore, SampleRange, SeedableRng, SmallRng, SplitMix64, StdRng,
    Xoshiro256PlusPlus,
};
