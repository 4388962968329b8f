//! Deterministic seeded load generator: millions of sessions through a
//! [`PaymentService`], with open- and closed-loop arrival schedules.
//!
//! The generator is the measurement half of the serving layer: it
//! drives batches of anycast sessions, times each round, and folds the
//! per-session latencies into an exact [`QuantileSketch`] (p50/p95/p99
//! are nearest-rank order statistics, not approximations). Everything
//! that decides *which* sessions run — sources, arrival order, retry
//! sets — derives from one `seed` through the crate's own
//! [`Xoshiro256PlusPlus`], so two runs with the same config offer,
//! settle, and shed exactly the same sessions at any thread count. Only
//! the *timings* vary run to run.
//!
//! Two arrival schedules:
//!
//! - **Open loop** ([`ArrivalMode::Open`]): every round offers a fresh
//!   batch regardless of what happened to the last one. Shed sessions
//!   are lost. This is the throughput probe — the service is never
//!   allowed to slow the arrival process down.
//! - **Closed loop** ([`ArrivalMode::Closed`]): a fixed user population,
//!   at most one in-flight session per user. A shed session stays
//!   pending and retries next round; its latency clock keeps running
//!   from its first offer, so backpressure shows up where it belongs —
//!   in the tail quantiles, not in a dropped-session count.

use std::time::Instant;

use truthcast_graph::NodeId;
use truthcast_obs::QuantileSketch;
use truthcast_rt::{Rng, SeedableRng, Xoshiro256PlusPlus};

use crate::service::{PaymentService, ServeOutcome};

/// Consecutive zero-settlement closed-loop rounds tolerated before the
/// run is declared stalled and truncated. Scheduled drains (default:
/// every 4 rounds) fall well inside this window, so any recoverable
/// backpressure settles something first; only a run that can never make
/// progress — every source unreachable, or a zero-capacity queue that
/// sheds even after drains — trips it.
const STALL_ROUNDS: u64 = 64;

/// How the load generator schedules session arrivals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArrivalMode {
    /// Unconditional arrivals: a fresh batch every round, shed sessions
    /// lost. Measures peak service throughput.
    Open,
    /// A fixed population of users, at most one in-flight session each;
    /// shed sessions retry until admitted. Measures latency under
    /// sustained backpressure.
    Closed {
        /// Number of users cycling sessions.
        population: usize,
    },
}

/// Load-generator configuration.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// PRNG seed — fully determines the offered session sequence.
    pub seed: u64,
    /// Total sessions to offer (open loop) or complete (closed loop).
    pub sessions: usize,
    /// Sessions offered per [`PaymentService::serve_batch`] call.
    pub batch: usize,
    /// Arrival schedule.
    pub mode: ArrivalMode,
    /// Drain every shard's admission queue after this many rounds
    /// (0 = never drain mid-run; the final drain always happens).
    pub drain_every: usize,
}

impl LoadConfig {
    /// An open-loop config offering `sessions` sessions in batches of
    /// `batch`, draining every 4 rounds.
    pub fn open(seed: u64, sessions: usize, batch: usize) -> LoadConfig {
        LoadConfig {
            seed,
            sessions,
            batch: batch.max(1),
            mode: ArrivalMode::Open,
            drain_every: 4,
        }
    }

    /// A closed-loop config completing `sessions` sessions over a
    /// population of `population` users, draining every 4 rounds.
    pub fn closed(seed: u64, sessions: usize, population: usize) -> LoadConfig {
        LoadConfig {
            seed,
            sessions,
            batch: population.max(1),
            mode: ArrivalMode::Closed {
                population: population.max(1),
            },
            drain_every: 4,
        }
    }
}

/// What a load run did and how fast.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Sessions offered to the service (settled + shed + unreachable).
    pub offered: u64,
    /// Sessions admitted by some shard.
    pub settled: u64,
    /// Shed events (closed loop: one session may shed several times).
    pub shed: u64,
    /// Sessions no AP could price.
    pub unreachable: u64,
    /// serve_batch rounds driven.
    pub rounds: u64,
    /// Wall-clock time inside `serve_batch`, in nanoseconds.
    pub serve_ns: u64,
    /// Settled sessions per wall-clock second of serving.
    pub sessions_per_sec: f64,
    /// Per-session latency sketch, in nanoseconds: offer to settlement.
    /// A session waits for its whole batch, so each settled session
    /// records its batch's full `serve_batch` time. Closed loop: a shed
    /// session's retries add their batches' times too, so the tail
    /// shows backpressure.
    pub latency: QuantileSketch,
    /// True if a closed-loop run was truncated after [`STALL_ROUNDS`]
    /// consecutive rounds with zero settlements (no session could ever
    /// settle); `settled` is then short of the configured target.
    pub stalled: bool,
}

impl LoadReport {
    /// One-line human summary: counts, throughput, p50/p95/p99.
    pub fn summary(&self) -> String {
        let q = |p: f64| self.latency.quantile(p).unwrap_or(0);
        format!(
            "offered {} settled {} shed {} unreachable {} | {:.0} sessions/s | latency ns p50 {} p95 {} p99 {}{}",
            self.offered,
            self.settled,
            self.shed,
            self.unreachable,
            self.sessions_per_sec,
            q(0.50),
            q(0.95),
            q(0.99),
            if self.stalled { " | STALLED" } else { "" },
        )
    }
}

/// Drives `cfg.sessions` anycast sessions through `service` from the
/// eligible `sources` (typically every non-AP node), per the arrival
/// schedule. Deterministic in everything but wall-clock timings; see
/// the module docs.
pub fn run_load(service: &PaymentService, sources: &[NodeId], cfg: &LoadConfig) -> LoadReport {
    assert!(!sources.is_empty(), "load needs at least one source");
    match cfg.mode {
        ArrivalMode::Open => run_open(service, sources, cfg),
        ArrivalMode::Closed { population } => run_closed(service, sources, cfg, population),
    }
}

/// Fills the derived throughput field and emits the run's obs samples.
fn finish(mut report: LoadReport) -> LoadReport {
    report.sessions_per_sec = if report.serve_ns == 0 {
        0.0
    } else {
        report.settled as f64 / (report.serve_ns as f64 / 1e9)
    };
    truthcast_obs::sample(
        "service.load.round_ns",
        report.serve_ns / report.rounds.max(1),
    );
    for q in [0.50, 0.95, 0.99] {
        if let Some(v) = report.latency.quantile(q) {
            truthcast_obs::sample("service.session_latency_ns", v);
        }
    }
    report
}

fn run_open(service: &PaymentService, sources: &[NodeId], cfg: &LoadConfig) -> LoadReport {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(cfg.seed);
    let mut latency = QuantileSketch::new();
    let (mut offered, mut settled, mut shed, mut unreachable) = (0u64, 0u64, 0u64, 0u64);
    let (mut rounds, mut serve_ns) = (0u64, 0u64);
    let mut batch = Vec::with_capacity(cfg.batch);
    while offered < cfg.sessions as u64 {
        let want = cfg.batch.min(cfg.sessions - offered as usize);
        batch.clear();
        batch.extend((0..want).map(|_| sources[rng.gen_range(0..sources.len())]));
        let t0 = Instant::now();
        let outcomes = service.serve_batch(&batch);
        let dt = t0.elapsed().as_nanos() as u64;
        serve_ns += dt;
        rounds += 1;
        // Every session in the batch settles when the batch returns.
        for o in &outcomes {
            match o {
                ServeOutcome::Settled(_) => {
                    settled += 1;
                    latency.record(dt);
                }
                ServeOutcome::Shed { .. } => shed += 1,
                ServeOutcome::Unreachable => unreachable += 1,
            }
        }
        offered += want as u64;
        if cfg.drain_every > 0 && rounds % cfg.drain_every as u64 == 0 {
            service.drain();
        }
    }
    service.drain();
    finish(LoadReport {
        offered,
        settled,
        shed,
        unreachable,
        rounds,
        serve_ns,
        sessions_per_sec: 0.0,
        latency,
        stalled: false,
    })
}

fn run_closed(
    service: &PaymentService,
    sources: &[NodeId],
    cfg: &LoadConfig,
    population: usize,
) -> LoadReport {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(cfg.seed);
    let mut latency = QuantileSketch::new();
    let (mut offered, mut settled, mut shed, mut unreachable) = (0u64, 0u64, 0u64, 0u64);
    let (mut rounds, mut serve_ns) = (0u64, 0u64);
    // Each pending user: (source, ns already accumulated on this
    // session across shed retries).
    let mut pending: Vec<(NodeId, u64)> = (0..population)
        .map(|_| (sources[rng.gen_range(0..sources.len())], 0))
        .collect();
    let mut batch = Vec::with_capacity(population);
    let mut next: Vec<(NodeId, u64)> = Vec::with_capacity(population);
    let mut zero_settle_rounds = 0u64;
    let mut stalled = false;
    while settled < cfg.sessions as u64 {
        let settled_before = settled;
        batch.clear();
        batch.extend(pending.iter().map(|&(s, _)| s));
        let t0 = Instant::now();
        let outcomes = service.serve_batch(&batch);
        let dt = t0.elapsed().as_nanos() as u64;
        serve_ns += dt;
        rounds += 1;
        offered += batch.len() as u64;
        next.clear();
        for (i, o) in outcomes.iter().enumerate() {
            let (src, waited) = pending[i];
            match o {
                ServeOutcome::Settled(_) => {
                    settled += 1;
                    latency.record(waited + dt);
                    // The user opens a fresh session next round.
                    next.push((sources[rng.gen_range(0..sources.len())], 0));
                }
                ServeOutcome::Shed { .. } => {
                    shed += 1;
                    // Same session retries; its clock keeps running.
                    next.push((src, waited + dt));
                }
                ServeOutcome::Unreachable => {
                    unreachable += 1;
                    next.push((sources[rng.gen_range(0..sources.len())], 0));
                }
            }
        }
        std::mem::swap(&mut pending, &mut next);
        if cfg.drain_every > 0 && rounds % cfg.drain_every as u64 == 0 {
            service.drain();
        }
        // Forward-progress guard: a closed loop where no pending session
        // can ever settle (all sources unreachable, or a queue that sheds
        // even after drains) would otherwise spin forever.
        if settled == settled_before {
            zero_settle_rounds += 1;
            if zero_settle_rounds >= STALL_ROUNDS {
                truthcast_obs::add("service.load.stalls", 1);
                stalled = true;
                break;
            }
        } else {
            zero_settle_rounds = 0;
        }
    }
    service.drain();
    finish(LoadReport {
        offered,
        settled,
        shed,
        unreachable,
        rounds,
        serve_ns,
        sessions_per_sec: 0.0,
        latency,
        stalled,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use truthcast_graph::NodeWeightedGraph;

    #[test]
    fn closed_loop_stall_truncates_instead_of_spinning() {
        // Path 0 — 1 — 2, AP at node 0, zero queue capacity: every
        // session prices fine but sheds forever, even across drains.
        let g = NodeWeightedGraph::from_pairs_units(&[(0, 1), (1, 2)], &[0, 2, 3]);
        let cfg = ServiceConfig::new(vec![NodeId(0)])
            .threads(1)
            .queue_capacity(0);
        let service = PaymentService::new(&cfg, &g);
        let load = LoadConfig::closed(7, 10, 2);
        let report = run_load(&service, &[NodeId(1), NodeId(2)], &load);
        assert!(report.stalled);
        assert_eq!(report.settled, 0);
        assert_eq!(report.rounds, STALL_ROUNDS);
        assert_eq!(report.shed, STALL_ROUNDS * 2);
        assert!(report.summary().ends_with("STALLED"));
    }

    #[test]
    fn each_session_waits_for_its_whole_batch() {
        let g = NodeWeightedGraph::from_pairs_units(&[(0, 1), (1, 2)], &[0, 2, 3]);
        let cfg = ServiceConfig::new(vec![NodeId(0)]).threads(1);
        let service = PaymentService::new(&cfg, &g);
        // One round of 8 sessions: every latency is that round's time.
        let report = run_load(
            &service,
            &[NodeId(1), NodeId(2)],
            &LoadConfig::open(7, 8, 8),
        );
        assert_eq!((report.rounds, report.settled), (1, 8));
        assert_eq!(report.latency.quantile(0.0), Some(report.serve_ns));
        assert_eq!(report.latency.quantile(1.0), Some(report.serve_ns));
    }

    #[test]
    fn closed_loop_with_capacity_completes_without_stall() {
        let g = NodeWeightedGraph::from_pairs_units(&[(0, 1), (1, 2)], &[0, 2, 3]);
        let cfg = ServiceConfig::new(vec![NodeId(0)]).threads(1);
        let service = PaymentService::new(&cfg, &g);
        let load = LoadConfig::closed(7, 10, 2);
        let report = run_load(&service, &[NodeId(1), NodeId(2)], &load);
        assert!(!report.stalled);
        assert_eq!(report.settled, 10);
    }
}
