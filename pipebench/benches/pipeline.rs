//! Pipeline benchmark: the epoch loop and the serve loop of one
//! `PaymentService` run together, the way they are deployed.
//!
//! ```text
//! cargo bench --offline --manifest-path pipebench/Cargo.toml --bench pipeline -- \
//!     [--workload static|mobility|storm|churn] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One process, two threads:
//!
//! - the **epoch driver** applies the workload's seeded trace back to
//!   back through `begin_epoch` / `begin_epoch_mapped` (a closed loop:
//!   the next epoch starts when the previous publish returns);
//! - the **serve loop** (main thread) runs a closed loop of 1024 clients
//!   through `serve_batch` + `drain`: each client waits for its
//!   settlement, then opens a session from a uniform random non-AP source.
//!
//! `ServiceConfig::threads(1)` keeps every `par_map` inline, so no other
//! thread starts. A run is set-up, a 10 s warm-up, the measured window
//! (`--seconds`, 15 s by default), then the oracle gate. The warm-up is
//! that long because the repair engines fill their caches lazily: on
//! `mobility` the resident set grows for about 20 s and serve p99 falls
//! by half over it. The last line of standard output is one JSON object
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). A traced run measures the first half of its window
//! untraced and the second half traced, writes `<workload>.chrome.json`
//! and `<workload>.jsonl` next to the benchmark executable's profile
//! directory (`<target>/<profile>/pipeline-trace/`), and prints the span
//! ledger. Any oracle mismatch exits non-zero. With no `--workload`,
//! every workload runs in its own child process. `TRUTHCAST_BENCH_QUICK=1`
//! shrinks the run to a smoke test (n = 256, k = 2, 0.5 s warm-up, 2 s
//! window). Metrics, workloads and bounds: `PIPELINE.md`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::mem::size_of;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

use truthcast_core::all_sources::AllSourcesEngine;
use truthcast_core::delta::{EpochOutcome, GraphDelta};
use truthcast_core::UnicastPricing;
use truthcast_graph::{Cost, NodeId, NodeWeightedGraph};
use truthcast_obs::{Snapshot, SpanRecord};
use truthcast_pipebench::{
    excerpt, interquartile_mean, pricing_digest, Deployment, Histogram, HostProbe, Ledger, Scale,
    SourceStream, Workload,
};
use truthcast_service::{PaymentService, ServeOutcome, ServiceConfig};

/// Closed-loop client population.
const CLIENTS: usize = 1024;
/// `PaymentService::new` builds per run; `setup_s` is their median.
const SETUP_BUILDS: usize = 3;
/// Every this-many measured serve rounds, all settlements are recorded
/// for the oracle gate.
const RECORD_EVERY: u64 = 64;
/// Oracle sweeps spent on recorded settlements per run.
const ORACLE_SWEEPS: usize = 32;
/// Traced cold sweeps behind the `core.all_sources.*` layer metrics.
const TRACED_SWEEPS: usize = 4;
/// Root span trees of each kind kept in the Chrome trace. The JSONL keeps
/// every span; the Chrome excerpt stays small enough to load in a viewer
/// and to check in-process (`validate_chrome_trace` re-validates the rest
/// of the document for every string character, so its time grows with
/// the square of the document's size).
const CHROME_TREES: usize = 32;
/// A batch longer than this multiple of the median batch is a stall.
const STALL_FACTOR: f64 = 10.0;
/// The benchmark's own root spans: the two loops' roots and the two
/// shadow calls made outside them.
const BENCH_ROOTS: [&str; 4] = [
    "bench.epoch",
    "bench.serve_round",
    "bench.delta_diff",
    "bench.snapshot_read",
];
/// Share of each root's time its named children must cover.
const MIN_COVERAGE: f64 = 0.9;
const MIB: f64 = 1024.0 * 1024.0;
/// Slices per measured window. Serve-side metrics are the interquartile
/// mean over slices, so a burst of host noise in one or two slices
/// cannot set them.
const SLICES: u32 = 10;
/// How often the serve loop asks for a host probe while measuring.
const PROBE_EVERY: Duration = Duration::from_millis(200);
/// The probe reading the reported timings are scaled to, in nanoseconds
/// per lookup: about what a quiet host reads (see `PIPELINE.md`).
const NOMINAL_PROBE_NS: f64 = 200.0;
/// How strongly epoch and set-up times follow the probe. Across about
/// 200 runs whose window probe medians ranged from 170 to 610 ns,
/// serve-path timings grew with the probe reading to the power 1.1-1.4
/// (r² ≥ 0.9), but epoch and set-up times only to the power 0.4-0.7:
/// that work is less bound by memory than the probe is. Scaling them by
/// the full slowdown overcorrected and doubled their spread on a noisy
/// host.
const SLOW_ELASTICITY: f64 = 0.5;

/// Run phases, kept in `Control::phase`.
const WARMUP: u8 = 0;
const MEASURE: u8 = 1;
/// The untraced half of a traced run is over: the epoch driver turns
/// tracing on at its next epoch boundary, so no epoch is traced in part.
const ARM: u8 = 2;
const TRACED: u8 = 3;
const STOP: u8 = 4;

/// Host-probe handshake, kept in `Control::probe`: the serve loop asks,
/// the epoch driver parks at its next epoch boundary, the serve loop
/// probes with both loops quiet and releases it.
const PROBE_IDLE: u8 = 0;
const PROBE_ASKED: u8 = 1;
const PROBE_PARKED: u8 = 2;

/// State shared between the serve loop, which owns the clock, and the
/// epoch driver.
struct Control {
    phase: AtomicU8,
    probe: AtomicU8,
}

const USAGE: &str = "usage: pipeline [--workload static|mobility|storm|churn] [--seed N] \
                     [--seconds S] [--trace 0|1]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
}

fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: None,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let v = value(&mut it, &flag)?;
                let w = Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?;
                args.workload = Some(w);
            }
            "--seed" => {
                let v = value(&mut it, &flag)?;
                args.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value(&mut it, &flag)?;
                let s: f64 = v.parse().map_err(|_| format!("bad seconds {v:?}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {v}"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value(&mut it, &flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace is 0 or 1, got {v:?}")),
                };
            }
            // cargo bench appends it to every bench target's arguments.
            "--bench" => {}
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let quick = std::env::var("TRUTHCAST_BENCH_QUICK").is_ok_and(|v| v != "0");
    match args.workload {
        Some(w) => run(w, &args, quick),
        None => run_all(&args),
    }
}

/// Runs every workload in its own child process, so each one's peak RSS
/// is its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot locate the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name(), "--seed", &args.seed.to_string()]);
        cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(s) = args.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        match cmd.status() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("error: workload {} failed: {s}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("error: cannot start workload {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// `VmHWM`: the process's peak resident set, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Heap bytes of the k current snapshots' pricing tables, in MiB.
fn snapshot_mb(service: &PaymentService) -> f64 {
    let mut bytes = 0usize;
    for shard in service.shards() {
        let snap = shard.cell().read();
        bytes += snap.pricing.capacity() * size_of::<Option<UnicastPricing>>();
        for p in snap.pricing.iter().flatten() {
            bytes += p.path.capacity() * size_of::<NodeId>()
                + p.payments.capacity() * size_of::<(NodeId, Cost)>();
        }
    }
    bytes as f64 / MIB
}

/// What the epoch driver saw in one measured window.
#[derive(Default)]
struct EpochStats {
    /// Per epoch: how long the call took.
    time: Histogram,
    build_ns: u64,
    epochs: u64,
    shard_epochs: u64,
    reused: u64,
    repaired: u64,
    fallback: u64,
    warm_resize: u64,
    dirty_sum: u64,
    dirty_count: u64,
    repriced: u64,
    /// `n` summed over repairing shard-epochs: the repriced-source base.
    repriced_base: u64,
}

impl EpochStats {
    fn record(&mut self, epoch: Duration, build: Duration, outcomes: &[EpochOutcome], n: usize) {
        self.time.record(ns(epoch), 1);
        self.build_ns += ns(build);
        self.epochs += 1;
        for &o in outcomes {
            self.shard_epochs += 1;
            match o {
                EpochOutcome::Reused => self.reused += 1,
                EpochOutcome::Repaired {
                    dirty_nodes,
                    repriced_sources,
                    ..
                } => {
                    self.repaired += 1;
                    self.dirty_sum += dirty_nodes as u64;
                    self.dirty_count += 1;
                    self.repriced += repriced_sources as u64;
                    self.repriced_base += n as u64;
                }
                EpochOutcome::Fallback { dirty_nodes } => {
                    self.fallback += 1;
                    self.dirty_sum += dirty_nodes as u64;
                    self.dirty_count += 1;
                }
                EpochOutcome::WarmResize { repaired, .. } => {
                    self.warm_resize += 1;
                    self.repriced += repaired as u64;
                    self.repriced_base += n as u64;
                }
                // Not expected after set-up; they show as shares that do
                // not add up to 1.
                EpochOutcome::Cold | EpochOutcome::ColdResize { .. } => {}
            }
        }
    }

    fn share(&self, count: u64) -> f64 {
        count as f64 / self.shard_epochs.max(1) as f64
    }
}

/// One slice of a measured window, as the serve loop saw it.
struct Slice {
    sessions_per_s: f64,
    p50_ns: f64,
    p90_ns: f64,
    p99_ns: f64,
    /// Median host-probe reading in the slice, if one landed in it.
    probe_ns: Option<f64>,
}

/// The slice being measured.
struct OpenSlice {
    start: Instant,
    latency: Histogram,
    settled: u64,
    probing: Duration,
    probe_ns: Vec<f64>,
}

impl OpenSlice {
    fn new(start: Instant) -> OpenSlice {
        OpenSlice {
            start,
            latency: Histogram::default(),
            settled: 0,
            probing: Duration::ZERO,
            probe_ns: Vec::new(),
        }
    }

    fn close(self, now: Instant) -> (Slice, Duration) {
        let wall = now - self.start - self.probing;
        let q = |q| self.latency.quantile(q).unwrap_or(f64::NAN);
        let slice = Slice {
            sessions_per_s: self.settled as f64 / wall.as_secs_f64(),
            p50_ns: q(0.5),
            p90_ns: q(0.9),
            p99_ns: q(0.99),
            probe_ns: (!self.probe_ns.is_empty()).then(|| median(self.probe_ns.clone())),
        };
        (slice, wall)
    }
}

/// What the serve loop saw in one measured window.
#[derive(Default)]
struct ServeStats {
    slices: Vec<Slice>,
    /// Per settled session: the `serve_batch` time of its batch.
    latency: Histogram,
    /// Per round: `serve_batch` time.
    batch: Histogram,
    /// Per round: `drain` time.
    drain: Histogram,
    rounds: u64,
    offered: u64,
    settled: u64,
    shed: u64,
    unreachable: u64,
    /// Window time, less the time spent probing.
    wall: Duration,
    peak_rss_mb: f64,
    /// Host-probe readings, ns per lookup.
    probe_ns: Vec<f64>,
}

impl ServeStats {
    /// How much slower than [`NOMINAL_PROBE_NS`] the host ran over the
    /// window: the median probe reading over the nominal one.
    fn slowdown(&self) -> f64 {
        median(self.probe_ns.clone()) / NOMINAL_PROBE_NS
    }

    /// The interquartile mean over slices of `f(slice, slowdown)`, where
    /// `slowdown` is the host slowdown measured in the slice when
    /// `scaled` (the window's when no probe landed in it) and 1 when not.
    fn per_slice(&self, scaled: bool, f: impl Fn(&Slice, f64) -> f64) -> f64 {
        let window = self.slowdown();
        interquartile_mean(
            self.slices
                .iter()
                .map(|s| {
                    let slowdown = match (scaled, s.probe_ns) {
                        (false, _) => 1.0,
                        (true, Some(p)) => p / NOMINAL_PROBE_NS,
                        (true, None) => window,
                    };
                    f(s, slowdown)
                })
                .collect(),
        )
    }
}

/// One settlement kept for the oracle gate.
#[derive(Clone, Copy)]
struct Recorded {
    source: u32,
    generation: u32,
    ap_index: u16,
    digest: u64,
}

/// Sets `STOP` when dropped, so a panicking serve loop cannot leave the
/// epoch driver running inside the thread scope.
struct StopOnDrop<'a>(&'a AtomicU8);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(STOP, Ordering::Release);
    }
}

fn epoch_driver(
    service: &PaymentService,
    mut dep: Deployment,
    control: &Control,
    trace: bool,
) -> ([EpochStats; 2], Deployment) {
    let mut stats = [EpochStats::default(), EpochStats::default()];
    // Traced runs keep the previous graph for the shadow diff.
    let mut prev: Option<NodeWeightedGraph> = None;
    loop {
        if control.probe.load(Ordering::Acquire) == PROBE_ASKED {
            control.probe.store(PROBE_PARKED, Ordering::Release);
            while control.probe.load(Ordering::Acquire) == PROBE_PARKED
                && control.phase.load(Ordering::Acquire) != STOP
            {
                std::thread::yield_now();
            }
        }
        let mut phase = control.phase.load(Ordering::Acquire);
        if phase == STOP {
            break;
        }
        if phase == ARM
            && control
                .phase
                .compare_exchange(ARM, TRACED, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            truthcast_obs::reset();
            truthcast_obs::enable();
            truthcast_obs::enable_profiling();
            phase = TRACED;
        }
        let slot = match phase {
            MEASURE => Some(0),
            TRACED => Some(1),
            _ => None,
        };
        let root = truthcast_obs::span("bench.epoch");
        let t0 = Instant::now();
        let (g, map) = {
            let _s = truthcast_obs::span("bench.graph_build");
            let map = dep.advance();
            (dep.graph(), map)
        };
        let t1 = Instant::now();
        let outcomes = match &map {
            Some(m) => service.begin_epoch_mapped(&g, m),
            None => service.begin_epoch(&g),
        };
        let t2 = Instant::now();
        drop(root);
        if let Some(i) = slot {
            stats[i].record(t2 - t1, t1 - t0, &outcomes, g.num_nodes());
        }
        if trace {
            if let (Some(p), true) = (&prev, truthcast_obs::enabled()) {
                // Shadow call outside the root: what the program's own
                // diff of this graph pair costs.
                let _s = truthcast_obs::span("bench.delta_diff");
                match &map {
                    Some(m) => drop(black_box(GraphDelta::between_mapped(p, &g, m))),
                    None => drop(black_box(GraphDelta::between(p, &g))),
                }
            }
            prev = Some(g);
        }
    }
    (stats, dep)
}

struct Served {
    stats: Vec<ServeStats>,
    recorded: Vec<Recorded>,
    trace: TraceLog,
}

fn serve_loop(
    service: &PaymentService,
    sources: &mut SourceStream,
    probe: &HostProbe,
    control: &Control,
    warmup: Duration,
    windows: &[Duration],
) -> Served {
    let mut batch: Vec<NodeId> = (0..CLIENTS).map(|_| sources.next_source()).collect();
    let mut stats: Vec<ServeStats> = windows.iter().map(|_| ServeStats::default()).collect();
    let mut recorded = Vec::new();
    let mut trace = TraceLog::default();
    let warm_end = Instant::now() + warmup;
    let mut slot: Option<usize> = None;
    let mut next_window = 0usize;
    let mut slice = OpenSlice::new(Instant::now());
    let mut next_probe = Instant::now();
    let mut measured_rounds = 0u64;
    loop {
        let root = truthcast_obs::span("bench.serve_round");
        let t0 = Instant::now();
        let outcomes = service.serve_batch(&batch);
        let served = t0.elapsed();
        let settle = truthcast_obs::span("bench.settle");
        // Every RECORD_EVERY-th measured round keeps the settlements of
        // one AP, rotating, so the kept set stays small.
        let record = (slot.is_some() && measured_rounds % RECORD_EVERY == 0)
            .then(|| (measured_rounds / RECORD_EVERY) as usize % service.num_aps());
        let (mut settled, mut shed, mut unreachable) = (0u64, 0u64, 0u64);
        for (client, o) in outcomes.iter().enumerate() {
            match o {
                ServeOutcome::Settled(s) => {
                    settled += 1;
                    if record == Some(s.ap_index) {
                        recorded.push(Recorded {
                            source: s.source.0,
                            generation: s.generation as u32,
                            ap_index: s.ap_index as u16,
                            digest: pricing_digest(&s.pricing),
                        });
                    }
                    batch[client] = sources.next_source();
                }
                // A shed session retries from the same source.
                ServeOutcome::Shed { .. } => shed += 1,
                ServeOutcome::Unreachable => {
                    unreachable += 1;
                    batch[client] = sources.next_source();
                }
            }
        }
        drop(outcomes);
        drop(settle);
        let t1 = Instant::now();
        let drain = truthcast_obs::span("bench.drain");
        drop(service.drain());
        drop(drain);
        let drained = t1.elapsed();
        drop(root);
        if truthcast_obs::enabled() {
            // Shadow call outside the root: the k snapshot reads alone.
            let _s = truthcast_obs::span("bench.snapshot_read");
            for shard in service.shards() {
                black_box(shard.cell().read());
            }
        }
        if control.probe.load(Ordering::Acquire) == PROBE_PARKED {
            // Both loops are quiet: read the host alone, then drain the
            // collector while nothing records into it.
            let t = Instant::now();
            let reading = probe.run();
            if truthcast_obs::enabled() {
                trace.drain();
            }
            if let Some(i) = slot {
                stats[i].probe_ns.push(reading);
                slice.probe_ns.push(reading);
                slice.probing += t.elapsed();
            }
            control.probe.store(PROBE_IDLE, Ordering::Release);
        }
        let now = Instant::now();
        match slot {
            Some(i) => {
                let st = &mut stats[i];
                st.rounds += 1;
                st.offered += CLIENTS as u64;
                st.settled += settled;
                st.shed += shed;
                st.unreachable += unreachable;
                st.latency.record(ns(served), settled);
                slice.latency.record(ns(served), settled);
                slice.settled += settled;
                st.batch.record(ns(served), 1);
                st.drain.record(ns(drained), 1);
                measured_rounds += 1;
                if now >= next_probe && control.probe.load(Ordering::Acquire) == PROBE_IDLE {
                    control.probe.store(PROBE_ASKED, Ordering::Release);
                    next_probe = now + PROBE_EVERY;
                }
                if now - slice.start < windows[i] / SLICES {
                    continue;
                }
                let (closed, wall) = std::mem::replace(&mut slice, OpenSlice::new(now)).close(now);
                st.slices.push(closed);
                st.wall += wall;
                if st.slices.len() == SLICES as usize {
                    st.peak_rss_mb = peak_rss_mb();
                    slot = None;
                    if i + 1 == windows.len() {
                        control.phase.store(STOP, Ordering::Release);
                        break;
                    }
                    control.phase.store(ARM, Ordering::Release);
                }
            }
            None => {
                let phase = control.phase.load(Ordering::Acquire);
                let open = if next_window == 0 {
                    phase == WARMUP && now >= warm_end
                } else {
                    phase == TRACED
                };
                if open {
                    if next_window == 0 {
                        control.phase.store(MEASURE, Ordering::Release);
                    }
                    slot = Some(next_window);
                    next_window += 1;
                    slice = OpenSlice::new(now);
                    next_probe = now;
                }
            }
        }
    }
    Served {
        stats,
        recorded,
        trace,
    }
}

/// What the oracle gate checked and what it found.
#[derive(Default)]
struct Gate {
    mismatches: Vec<String>,
    sweeps: usize,
    recorded_checked: usize,
    final_sessions: usize,
}

/// The anycast oracle: cheapest LCP cost over the k tables, ties to the
/// lowest AP index, `None` where no AP reaches `v`.
fn argmin(tables: &[Vec<Option<UnicastPricing>>], v: NodeId) -> Option<usize> {
    let mut best: Option<(usize, Cost)> = None;
    for (i, t) in tables.iter().enumerate() {
        if let Some(p) = &t[v.index()] {
            if best.map_or(true, |(_, c)| p.lcp_cost < c) {
                best = Some((i, p.lcp_cost));
            }
        }
    }
    best.map(|(i, _)| i)
}

fn oracle_gate(
    w: Workload,
    seed: u64,
    scale: Scale,
    service: &PaymentService,
    recorded: &[Recorded],
    last: &Deployment,
) -> Gate {
    let mut gate = Gate::default();
    let mut engine = AllSourcesEngine::with_threads(1);
    let mut groups: BTreeMap<(u32, u16), Vec<Recorded>> = BTreeMap::new();
    for r in recorded {
        groups
            .entry((r.generation, r.ap_index))
            .or_default()
            .push(*r);
    }
    let keys: Vec<(u32, u16)> = groups.keys().copied().collect();
    let chosen: Vec<(u32, u16)> = if keys.len() <= ORACLE_SWEEPS {
        keys
    } else {
        (0..ORACLE_SWEEPS)
            .map(|i| keys[i * keys.len() / ORACLE_SWEEPS])
            .collect()
    };
    // Inputs are a pure function of (seed, epoch): replay instead of
    // keeping graphs. Generation 1 is the set-up epoch.
    let mut replay = Deployment::new(w, seed, scale);
    let mut graph: Option<(u32, NodeWeightedGraph)> = None;
    for (gen, ap) in chosen {
        while replay.epoch() + 1 < u64::from(gen) {
            replay.advance();
        }
        if graph.as_ref().map_or(true, |(g, _)| *g != gen) {
            graph = Some((gen, replay.graph()));
        }
        let (_, g) = graph.as_ref().expect("built above");
        let table = engine.price_all_sources(g, NodeId::new(usize::from(ap)));
        gate.sweeps += 1;
        for r in &groups[&(gen, ap)] {
            gate.recorded_checked += 1;
            let want = table
                .get(r.source as usize)
                .and_then(Option::as_ref)
                .map(pricing_digest);
            if want != Some(r.digest) {
                gate.mismatches.push(format!(
                    "workload {} seed {seed} generation {gen} source {} ap_index {ap}: \
                     settlement differs from all_sources_payments",
                    w.name(),
                    r.source
                ));
            }
        }
    }
    // The epoch driver has stopped: one batch of every non-AP source
    // against the argmin over k on the final graph.
    let g = last.graph();
    let generation = last.epoch() + 1;
    let tables: Vec<_> = last
        .aps()
        .iter()
        .map(|&ap| engine.price_all_sources(&g, ap))
        .collect();
    gate.sweeps += tables.len();
    let sources: Vec<NodeId> = (scale.k..g.num_nodes()).map(NodeId::new).collect();
    let outcomes = service.serve_batch(&sources);
    drop(service.drain());
    gate.final_sessions = sources.len();
    for (&v, o) in sources.iter().zip(&outcomes) {
        let want = argmin(&tables, v);
        let ok = match (o, want) {
            (ServeOutcome::Settled(s), Some(i)) => {
                s.ap_index == i
                    && s.generation == generation
                    && tables[i][v.index()].as_ref() == Some(&s.pricing)
            }
            (ServeOutcome::Unreachable, None) => true,
            _ => false,
        };
        if !ok {
            gate.mismatches.push(format!(
                "workload {} seed {seed} generation {generation} source {}: final batch \
                 settled {o:?}, oracle says ap_index {want:?}",
                w.name(),
                v.0
            ));
        }
    }
    gate
}

/// Cold all-sources sweeps of the final graph, traced, for the cold
/// reference costs in the per-layer metrics.
fn traced_sweeps(last: &Deployment) -> Snapshot {
    let g = last.graph();
    let mut engine = AllSourcesEngine::with_threads(1);
    truthcast_obs::reset();
    truthcast_obs::enable();
    truthcast_obs::enable_profiling();
    for &ap in last.aps().iter().take(TRACED_SWEEPS) {
        black_box(engine.price_all_sources(&g, ap));
    }
    TraceLog::default().finish()
}

/// What tracing collected, moved out of the collector in pieces, less
/// the payment audit trail: with tracing on, every priced source logs
/// one audit record per relay (about 1.5 million per `storm` epoch),
/// which the ledger does not use. Left in the collector for a whole
/// window they took 1.7 GB; drained at every host probe, when both loops
/// are parked and nothing is recording, they never hold more than about
/// one epoch's worth.
#[derive(Default)]
struct TraceLog {
    spans: Vec<SpanRecord>,
    counters: BTreeMap<String, u64>,
    audits: usize,
}

impl TraceLog {
    /// Moves everything the collector holds into the log.
    fn drain(&mut self) {
        let snap = truthcast_obs::snapshot();
        truthcast_obs::reset();
        self.spans.extend(snap.spans);
        for (name, v) in snap.counters {
            *self.counters.entry(name).or_default() += v;
        }
        self.audits += snap.audits.len();
    }

    /// Stops tracing and returns all it collected. The audit count is
    /// printed.
    fn finish(mut self) -> Snapshot {
        truthcast_obs::disable_profiling();
        truthcast_obs::disable();
        self.drain();
        println!(
            "tracing logged {} payment audit records (not kept)",
            self.audits
        );
        Snapshot {
            counters: self.counters.into_iter().collect(),
            spans: self.spans,
            ..Snapshot::default()
        }
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The end-to-end metrics of one window. Session metrics are the
/// interquartile means over the window's slices; epoch quantiles are
/// over every epoch that finished in the window; `setup_s` is the median
/// of `builds`, each a build time and the host slowdown around it. With
/// `scaled`, each slice's timings are divided (throughput multiplied) by
/// the host slowdown measured in it, and epoch and build times by the
/// slowdown's [`SLOW_ELASTICITY`] power.
fn end_to_end(
    serve: &ServeStats,
    epochs: &EpochStats,
    builds: &[(f64, f64)],
    scaled: bool,
) -> Vec<Metric> {
    let damped = |slowdown: f64| {
        if scaled {
            slowdown.powf(SLOW_ELASTICITY)
        } else {
            1.0
        }
    };
    let epoch_q = |q| {
        epochs
            .time
            .quantile(q)
            .map_or(f64::NAN, |v| v / damped(serve.slowdown()) / 1e6)
    };
    vec![
        metric(
            "sessions_per_s",
            serve.per_slice(scaled, |s, k| s.sessions_per_s * k),
            "sessions/s",
        ),
        metric(
            "session_p50_us",
            serve.per_slice(scaled, |s, k| s.p50_ns / k / 1e3),
            "us",
        ),
        metric("epoch_p50_ms", epoch_q(0.5), "ms"),
        metric("epoch_p80_ms", epoch_q(0.8), "ms"),
        metric(
            "setup_s",
            median(
                builds
                    .iter()
                    .map(|&(t, slowdown)| t / damped(slowdown))
                    .collect(),
            ),
            "s",
        ),
        metric("peak_rss_mb", serve.peak_rss_mb, "MB"),
    ]
}

/// Layer metrics read from return values: every run has them for free.
/// The session tail leads them. It is an end-to-end figure, but its
/// spread between runs (p99 up to 39%, p90 up to 27% on `storm` in sets
/// of ten) is wider than any regression bound can be, so it is reported
/// here, unbounded (see `PIPELINE.md`).
fn returned_layers(serve: &ServeStats, epochs: &EpochStats, snapshot_mb: f64) -> Vec<Metric> {
    let stall_ns = serve
        .batch
        .quantile(0.5)
        .map_or(0, |m| (m * STALL_FACTOR) as u64);
    let wall_ns = ns(serve.wall).max(1) as f64;
    vec![
        metric(
            "session_p90_us",
            serve.per_slice(true, |s, k| s.p90_ns / k / 1e3),
            "us",
        ),
        metric(
            "session_p99_us",
            serve.per_slice(true, |s, k| s.p99_ns / k / 1e3),
            "us",
        ),
        metric("epoch.count", epochs.epochs as f64, "count"),
        metric("epoch.reused_frac", epochs.share(epochs.reused), "ratio"),
        metric(
            "epoch.repaired_frac",
            epochs.share(epochs.repaired),
            "ratio",
        ),
        metric(
            "epoch.fallback_frac",
            epochs.share(epochs.fallback),
            "ratio",
        ),
        metric(
            "epoch.warm_resize_frac",
            epochs.share(epochs.warm_resize),
            "ratio",
        ),
        metric(
            "epoch.dirty_nodes_mean",
            epochs.dirty_sum as f64 / epochs.dirty_count.max(1) as f64,
            "count",
        ),
        metric(
            "epoch.repriced_frac",
            epochs.repriced as f64 / epochs.repriced_base.max(1) as f64,
            "ratio",
        ),
        metric(
            "input.graph_build_ms",
            epochs.build_ns as f64 / epochs.epochs.max(1) as f64 / 1e6,
            "ms",
        ),
        metric("serve.rounds", serve.rounds as f64, "count"),
        metric(
            "serve.drain_us_p50",
            serve.drain.quantile(0.5).unwrap_or(f64::NAN) / 1e3,
            "us",
        ),
        metric(
            "serve.stall_frac",
            serve.batch.sum_above(stall_ns) as f64 / wall_ns,
            "ratio",
        ),
        metric(
            "serve.unreachable_frac",
            serve.unreachable as f64 / serve.offered.max(1) as f64,
            "ratio",
        ),
        metric("service.snapshot_mb", snapshot_mb, "MB"),
    ]
}

/// Layer metrics from the traced window (`window`, spans under the bench
/// roots) and the traced oracle sweeps (`oracle`).
fn traced_layers(
    window: &Snapshot,
    epochs: &EpochStats,
    oracle: &Snapshot,
) -> (Vec<Metric>, Ledger) {
    let ledger = Ledger::build(&window.spans, &BENCH_ROOTS);
    let shard_epochs = epochs.shard_epochs.max(1) as f64;
    let rounds = ledger
        .roots
        .get("bench.serve_round")
        .map_or(1, |r| r.count.max(1)) as f64;
    let oracle_ledger = Ledger::build(&oracle.spans, &["core.all_sources"]);
    let sweeps = oracle_ledger
        .roots
        .get("core.all_sources")
        .map_or(1, |r| r.count.max(1)) as f64;
    let self_per =
        |l: &Ledger, name: &str, per: f64, scale: f64| l.row(name).self_ns as f64 / per / scale;
    let total_per =
        |l: &Ledger, name: &str, per: f64, scale: f64| l.row(name).total_ns as f64 / per / scale;
    let mut out = vec![
        metric(
            "service.begin_epoch.self_ms",
            self_per(&ledger, "service.begin_epoch", shard_epochs, 1e6),
            "ms",
        ),
        metric(
            "core.delta.price_epoch.self_ms",
            self_per(&ledger, "core.delta.price_epoch", shard_epochs, 1e6),
            "ms",
        ),
        metric(
            "core.delta.repair.self_ms",
            self_per(&ledger, "core.delta.repair", shard_epochs, 1e6),
            "ms",
        ),
        metric(
            "core.delta.resize.self_ms",
            self_per(&ledger, "core.delta.resize", shard_epochs, 1e6),
            "ms",
        ),
    ];
    for name in [
        "delta.subtree_runs",
        "delta.assemble",
        "delta.fallback",
        "delta.cold_sweep",
    ] {
        out.push(metric(
            format!("{name}.ms"),
            total_per(&ledger, name, shard_epochs, 1e6),
            "ms",
        ));
    }
    for name in [
        "core.all_sources",
        "all_sources.spt_sweep",
        "all_sources.subtree_runs",
        "all_sources.assemble",
        "all_sources.fallback",
    ] {
        out.push(metric(
            format!("{name}.ms"),
            total_per(&oracle_ledger, name, sweeps, 1e6),
            "ms",
        ));
    }
    let epochs_traced = epochs.epochs.max(1) as f64;
    out.push(metric(
        "bench.delta_diff_us",
        total_per(&ledger, "bench.delta_diff", epochs_traced, 1e3),
        "us",
    ));
    out.push(metric(
        "bench.snapshot_read_us",
        total_per(&ledger, "bench.snapshot_read", rounds, 1e3),
        "us",
    ));
    out.push(metric(
        "service.serve_batch.self_us",
        self_per(&ledger, "service.serve_batch", rounds, 1e3),
        "us",
    ));
    for name in [
        "core.delta.dirty_nodes",
        "core.delta.subtree_runs",
        "core.delta.row_repairs",
        "core.delta.row_rebuilds",
        "core.delta.fallbacks",
        "graph.node_dijkstra.pops",
        "graph.node_dijkstra.relaxations",
    ] {
        out.push(metric(
            name,
            window.counter(name) as f64 / shard_epochs,
            "count",
        ));
    }
    for name in [
        "core.all_sources.fallbacks",
        "core.all_sources.restricted_pops",
    ] {
        out.push(metric(name, oracle.counter(name) as f64 / sweeps, "count"));
    }
    for name in [
        "service.epoch.stale_snapshots",
        "service.epoch.reader_retries",
        "service.epoch.blocked_readers",
    ] {
        out.push(metric(name, window.counter(name) as f64 / rounds, "count"));
    }
    (out, ledger)
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// `<target>/<profile>/pipeline-trace/`, beside the benchmark executable
/// (`<target>/<profile>/deps/pipeline-…`), so trace output stays in the
/// build directory whatever the working directory is.
fn trace_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .and_then(|deps| deps.parent())
        .map(|profile| profile.join("pipeline-trace"))
        .ok_or_else(|| std::io::Error::other("benchmark executable has no profile directory"))?;
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Writes and validates the traced window's Chrome trace and JSONL.
fn write_traces(w: Workload, snap: &Snapshot) -> Result<(), String> {
    let dir = trace_dir().map_err(|e| format!("trace directory: {e}"))?;
    let trees = Snapshot {
        spans: excerpt(&snap.spans, &BENCH_ROOTS, CHROME_TREES),
        ..Snapshot::default()
    };
    let chrome = truthcast_obs::to_chrome_trace(&trees);
    let stats = truthcast_obs::validate_chrome_trace(&chrome)
        .map_err(|e| format!("chrome trace invalid: {e}"))?;
    let jsonl = truthcast_obs::export::to_jsonl(snap);
    let lines = truthcast_obs::validate_jsonl(&jsonl).map_err(|e| format!("jsonl invalid: {e}"))?;
    let chrome_path = dir.join(format!("{}.chrome.json", w.name()));
    let jsonl_path = dir.join(format!("{}.jsonl", w.name()));
    std::fs::write(&chrome_path, chrome).map_err(|e| format!("{chrome_path:?}: {e}"))?;
    std::fs::write(&jsonl_path, jsonl).map_err(|e| format!("{jsonl_path:?}: {e}"))?;
    println!(
        "trace: {} ({stats:?}), {} ({lines} lines)",
        chrome_path.display(),
        jsonl_path.display()
    );
    Ok(())
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn run(w: Workload, args: &Args, quick: bool) -> ExitCode {
    let scale = if quick { Scale::QUICK } else { Scale::FULL };
    let warmup = Duration::from_secs_f64(if quick { 0.5 } else { 10.0 });
    let seconds = args.seconds.unwrap_or(if quick { 2.0 } else { 15.0 });
    let windows = if args.trace {
        vec![Duration::from_secs_f64(seconds / 2.0); 2]
    } else {
        vec![Duration::from_secs_f64(seconds)]
    };
    println!(
        "pipeline {} seed {}: n={} k={} clients={CLIENTS} warm-up {:.1} s, window {seconds:.1} s{}",
        w.name(),
        args.seed,
        scale.n,
        scale.k,
        warmup.as_secs_f64(),
        if args.trace {
            " (half untraced, half traced)"
        } else {
            ""
        }
    );

    let dep = Deployment::new(w, args.seed, scale);
    let g0 = dep.graph();
    let cfg = ServiceConfig::new(dep.aps()).threads(1);
    let probe = HostProbe::default();
    // Each build is paired with the host slowdown around it: the mean of
    // the probe readings taken just before and just after it.
    let mut reading = probe.run();
    let mut builds = Vec::with_capacity(SETUP_BUILDS);
    let mut traced_build = [(f64::NAN, 1.0)];
    let mut service = None;
    for i in 0..SETUP_BUILDS {
        drop(service.take());
        if args.trace && i + 1 == SETUP_BUILDS {
            truthcast_obs::enable();
            let t = Instant::now();
            drop(PaymentService::new(&cfg, &g0));
            traced_build = [(t.elapsed().as_secs_f64(), reading / NOMINAL_PROBE_NS)];
            truthcast_obs::disable();
            truthcast_obs::reset();
        }
        let t = Instant::now();
        service = Some(PaymentService::new(&cfg, &g0));
        let build = t.elapsed().as_secs_f64();
        let after = probe.run();
        builds.push((build, (reading + after) / 2.0 / NOMINAL_PROBE_NS));
        reading = after;
    }
    drop(g0);
    let service = service.expect("SETUP_BUILDS > 0");

    let control = Control {
        phase: AtomicU8::new(WARMUP),
        probe: AtomicU8::new(PROBE_IDLE),
    };
    let mut sources = SourceStream::new(args.seed, scale);
    let (epochs, last, served) = std::thread::scope(|scope| {
        let driver = scope.spawn(|| epoch_driver(&service, dep, &control, args.trace));
        let stop = StopOnDrop(&control.phase);
        let served = serve_loop(&service, &mut sources, &probe, &control, warmup, &windows);
        drop(stop);
        let (epochs, last) = driver.join().expect("epoch driver panicked");
        (epochs, last, served)
    });
    let Served {
        stats,
        recorded,
        trace,
    } = served;
    let window_snap = args.trace.then(|| trace.finish());
    let snapshot_mb = snapshot_mb(&service);

    let gate_start = Instant::now();
    let gate = oracle_gate(w, args.seed, scale, &service, &recorded, &last);
    let gate_s = gate_start.elapsed().as_secs_f64();
    let oracle_snap = args.trace.then(|| traced_sweeps(&last));

    let serve = &stats[0];
    let probe_ns = median(serve.probe_ns.clone());
    let e2e = end_to_end(serve, &epochs[0], &builds, true);
    print_metrics(
        &format!(
            "end to end{}: {} settled sessions in {:.2} s, {} epochs; timings scaled by the \
             host probe ({} readings, median {probe_ns:.1} ns)",
            if args.trace { " (untraced half)" } else { "" },
            serve.settled,
            serve.wall.as_secs_f64(),
            epochs[0].epochs,
            serve.probe_ns.len()
        ),
        &e2e,
    );
    print_metrics(
        "end to end, raw wall clock",
        &end_to_end(serve, &epochs[0], &builds, false),
    );
    let per_slice = |n: u64| n / serve.slices.len().max(1) as u64;
    println!(
        "  samples: {} slices of {} sessions ({} beyond p90, {} beyond p99 per slice), {} epochs \
         ({} beyond p80), {} set-up builds",
        serve.slices.len(),
        per_slice(serve.latency.count()),
        per_slice(serve.latency.beyond(0.9)),
        per_slice(serve.latency.beyond(0.99)),
        epochs[0].time.count(),
        epochs[0].time.beyond(0.8),
        SETUP_BUILDS
    );
    let slices: Vec<String> = serve
        .slices
        .iter()
        .map(|s| {
            format!(
                "{:.0}/{:.0}/{:.0}/{:.0}",
                s.sessions_per_s / 1e3,
                s.p50_ns / 1e3,
                s.p99_ns / 1e3,
                s.probe_ns.unwrap_or(f64::NAN)
            )
        })
        .collect();
    println!(
        "  slices (raw ksessions/s / p50 us / p99 us / probe ns): {}",
        slices.join(" ")
    );
    let mut layers = returned_layers(serve, &epochs[0], snapshot_mb);
    layers.push(metric("probe.ns_per_lookup", probe_ns, "ns"));
    print_metrics("layers (from return values)", &layers);
    let offered: u64 = stats.iter().map(|s| s.offered).sum();
    let shed: u64 = stats.iter().map(|s| s.shed).sum();
    println!(
        "  failed_frac {} (shed {shed} of {offered} offered)",
        shed as f64 / offered.max(1) as f64
    );
    println!(
        "oracle gate: {} recorded settlements over {} sweeps, final batch of {} sources: {} \
         mismatches ({gate_s:.2} s)",
        gate.recorded_checked,
        gate.sweeps,
        gate.final_sessions,
        gate.mismatches.len()
    );
    for m in gate.mismatches.iter().take(20) {
        println!("MISMATCH {m}");
    }
    let mut correct = gate.mismatches.is_empty() && gate.recorded_checked > 0;

    let mut reported = e2e;
    if let (Some(window), Some(oracle)) = (&window_snap, &oracle_snap) {
        let traced = &stats[1];
        let traced_e2e = end_to_end(traced, &epochs[1], &traced_build, true);
        print_metrics("end to end (traced half, scaled)", &traced_e2e);
        let (per_layer, ledger) = traced_layers(window, &epochs[1], oracle);
        println!("ledger (traced half):\n{}", ledger.table());
        for root in ["bench.epoch", "bench.serve_round"] {
            let share = ledger.roots.get(root).map_or(0.0, |c| c.share());
            if share < MIN_COVERAGE {
                println!(
                    "COVERAGE named children cover {:.1}% of {root} (< {:.0}%)",
                    100.0 * share,
                    100.0 * MIN_COVERAGE
                );
                correct = false;
            }
        }
        if window.counter("service.epoch.blocked_readers") > 0 {
            println!("BLOCKED service.epoch.blocked_readers > 0");
            correct = false;
        }
        if let Err(e) = write_traces(w, window) {
            println!("TRACE {e}");
            correct = false;
        }
        let shown = layers.len();
        layers.extend(per_layer);
        // Positive when tracing made the metric worse; throughput is the
        // one end-to-end metric where higher is better.
        for (u, t) in reported.iter().zip(&traced_e2e) {
            let worse = if u.name == "sessions_per_s" {
                u.value - t.value
            } else {
                t.value - u.value
            };
            layers.push(metric(
                format!("trace_overhead_pct.{}", u.name),
                100.0 * worse / u.value,
                "%",
            ));
        }
        print_metrics("layers (traced)", &layers[shown..]);
        reported = layers;
    }

    if let Some(m) = reported.iter().find(|m| !m.value.is_finite()) {
        eprintln!(
            "error: metric {} was not measured (window too short for an epoch?)",
            m.name
        );
        return ExitCode::FAILURE;
    }
    println!(
        "{}",
        json_line(
            correct,
            offered + gate.final_sessions as u64,
            shed,
            &reported
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
