//! Benchmark-side code for the pipeline benchmark (`benches/pipeline.rs`;
//! metrics, workloads and bounds are described in `PIPELINE.md`).
//!
//! Everything here lives outside the program under test: the seeded
//! deployment traces the workloads replay, the fixed-size histogram the
//! end-to-end quantiles come from, the span ledger that splits a traced
//! window into per-layer self times, and the settlement digest the oracle
//! gate compares. The payment service only ever receives the graphs, node
//! maps and source batches built here.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

use truthcast_core::UnicastPricing;
use truthcast_graph::generators::{pairs_within_range, random_placement};
use truthcast_graph::geometry::{Point, Region};
use truthcast_graph::{adjacency_from_pairs, Cost, NodeId, NodeMap, NodeWeightedGraph};
use truthcast_obs::SpanRecord;
use truthcast_rt::{mix_u64, Rng, SeedableRng, SmallRng};

/// Radio range of every deployment, in meters.
pub const RANGE: f64 = 300.0;

/// Stream tag separating the client-source stream from the deployment
/// stream drawn from the same seed.
const SOURCE_STREAM: u64 = 0x5e55_1095;

/// Deployment size: `n` nodes at epoch 0, access points at `0..k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Nodes at epoch 0.
    pub n: usize,
    /// Access points, at node indices `0..k`.
    pub k: usize,
}

impl Scale {
    /// The measured configuration.
    pub const FULL: Scale = Scale { n: 4096, k: 16 };
    /// The smoke configuration (`TRUTHCAST_BENCH_QUICK=1`).
    pub const QUICK: Scale = Scale { n: 256, k: 2 };
}

/// The four mobility workloads. See `PIPELINE.md` for why each exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The topology never changes: every shard-epoch is `Reused`.
    Static,
    /// 4 teleports per epoch: almost every shard-epoch repairs.
    Mobility,
    /// 32 teleports per epoch: the repair-vs-cold decision splits.
    Storm,
    /// 4 teleports, 2 leaves, 2 joins per epoch, through a `NodeMap`.
    Churn,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::Static,
        Workload::Mobility,
        Workload::Storm,
        Workload::Churn,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Static => "static",
            Workload::Mobility => "mobility",
            Workload::Storm => "storm",
            Workload::Churn => "churn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Non-AP nodes teleported per epoch.
    fn teleports(self) -> usize {
        match self {
            Workload::Static => 0,
            Workload::Mobility | Workload::Churn => 4,
            Workload::Storm => 32,
        }
    }

    /// Nodes that leave, then nodes that join, per epoch.
    fn churn(self) -> usize {
        match self {
            Workload::Churn => 2,
            _ => 0,
        }
    }
}

fn random_point(region: Region, rng: &mut SmallRng) -> Point {
    Point::new(
        rng.gen_range(0.0..=region.width),
        rng.gen_range(0.0..=region.height),
    )
}

fn random_cost(rng: &mut SmallRng) -> Cost {
    Cost::from_f64(rng.gen_range(1.0..50.0))
}

/// Seed of the epoch-0 placement and costs, the same for every run. The
/// run's seed drives everything after epoch 0 (teleports, joins, client
/// sources); drawing the topology from it too made peak RSS differ by 5%
/// and `churn` throughput by 26% between seeds from topology alone, more
/// than a regression bound can absorb (see `PIPELINE.md`).
const TOPOLOGY_SEED: u64 = 0x70b0_1095;

/// A seeded deployment and its epoch trace. The state after epoch `e` is
/// a pure function of `(workload, seed, scale, e)`: epoch `e`'s events
/// come from their own generator seeded by `(seed, e)`, so the oracle gate
/// can replay any epoch without the run having kept its graphs.
#[derive(Clone, Debug)]
pub struct Deployment {
    workload: Workload,
    seed: u64,
    k: usize,
    base_n: usize,
    region: Region,
    points: Vec<Point>,
    costs: Vec<Cost>,
    /// Stable identity of the node at each index.
    tags: Vec<u64>,
    next_tag: u64,
    epoch: u64,
}

impl Deployment {
    /// The epoch-0 deployment: `scale.n` uniform points with about 12
    /// neighbours each, costs drawn from U[1, 50), placed from
    /// [`TOPOLOGY_SEED`]; `seed` drives the epochs that follow.
    pub fn new(workload: Workload, seed: u64, scale: Scale) -> Deployment {
        assert!(scale.k < scale.n, "need at least one non-AP node");
        let mut rng = SmallRng::seed_from_u64(TOPOLOGY_SEED);
        let side = (scale.n as f64 * RANGE * RANGE * std::f64::consts::PI / 12.0).sqrt();
        let region = Region::new(side, side);
        let points = random_placement(scale.n, region, &mut rng);
        let costs = (0..scale.n).map(|_| random_cost(&mut rng)).collect();
        Deployment {
            workload,
            seed,
            k: scale.k,
            base_n: scale.n,
            region,
            points,
            costs,
            tags: (0..scale.n as u64).collect(),
            next_tag: scale.n as u64,
            epoch: 0,
        }
    }

    /// Epochs applied so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Nodes in the current epoch.
    pub fn num_nodes(&self) -> usize {
        self.points.len()
    }

    /// The access points, at indices `0..k` in every epoch.
    pub fn aps(&self) -> Vec<NodeId> {
        (0..self.k).map(NodeId::new).collect()
    }

    /// Stable identity of the node at each current index.
    pub fn tags(&self) -> &[u64] {
        &self.tags
    }

    /// The current epoch graph.
    pub fn graph(&self) -> NodeWeightedGraph {
        let pairs: Vec<(u32, u32)> = pairs_within_range(&self.points, RANGE)
            .into_iter()
            .map(|(u, v)| (u.0, v.0))
            .collect();
        NodeWeightedGraph::new(
            adjacency_from_pairs(self.points.len(), &pairs),
            self.costs.clone(),
        )
    }

    /// Applies the next epoch's events. Returns the [`NodeMap`] from the
    /// previous index space when the node set changed (churn), `None`
    /// when it did not.
    pub fn advance(&mut self) -> Option<NodeMap> {
        self.epoch += 1;
        let mut rng = SmallRng::seed_from_u64(mix_u64(self.seed ^ mix_u64(self.epoch)));
        for _ in 0..self.workload.teleports() {
            let v = rng.gen_range(self.k..self.points.len());
            self.points[v] = random_point(self.region, &mut rng);
        }
        let churn = self.workload.churn();
        if churn == 0 {
            return None;
        }
        // Last in, first out: only nodes that joined during the run
        // leave, newest first. They sit at the highest indices, so no
        // survivor is renumbered (a `swap_remove` leave would renumber
        // one; see `PIPELINE.md` for why the benchmark avoids that).
        let old_n = self.points.len();
        let survivors = old_n - churn.min(old_n - self.base_n);
        self.points.truncate(survivors);
        self.costs.truncate(survivors);
        self.tags.truncate(survivors);
        for _ in 0..churn {
            self.points.push(random_point(self.region, &mut rng));
            self.costs.push(random_cost(&mut rng));
            self.tags.push(self.next_tag);
            self.next_tag += 1;
        }
        let old_to_new = (0..old_n)
            .map(|i| (i < survivors).then(|| NodeId::new(i)))
            .collect();
        Some(NodeMap::from_old_to_new(old_to_new, self.points.len()))
    }
}

/// The client population's session sources: uniform over the non-AP
/// nodes of the epoch-0 population (`k..n`), which every workload keeps
/// at fixed indices.
pub struct SourceStream {
    rng: SmallRng,
    k: usize,
    n: usize,
}

impl SourceStream {
    /// The stream for `seed`, independent of the deployment stream.
    pub fn new(seed: u64, scale: Scale) -> SourceStream {
        SourceStream {
            rng: SmallRng::seed_from_u64(mix_u64(seed ^ SOURCE_STREAM)),
            k: scale.k,
            n: scale.n,
        }
    }

    /// The next session's source.
    pub fn next_source(&mut self) -> NodeId {
        NodeId::new(self.rng.gen_range(self.k..self.n))
    }
}

/// Sub-buckets per power of two: a recorded value is kept to within
/// 1/256 of its magnitude (values below 256 exactly).
const SUB_BITS: u32 = 8;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) << SUB_BITS;

fn bucket(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let e = 63 - v.leading_zeros();
        let shift = e - SUB_BITS;
        (((shift + 1) as usize) << SUB_BITS) + ((v >> shift) - SUB) as usize
    }
}

/// The nearest rank `⌈q·n⌉` (clamped to `1..=n`) of quantile `q` over
/// `n` samples.
fn nearest_rank(q: f64, n: u64) -> u64 {
    // The epsilon keeps products such as 0.99 × 1000 at 990, not 991.
    ((q * n as f64 - 1e-9).ceil() as u64).clamp(1, n.max(1))
}

/// Mean of the values left after dropping the lowest and the highest
/// quarter (rounded down): as robust to a few outliers as the median,
/// with less noise of its own.
pub fn interquartile_mean(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let cut = values.len() / 4;
    let kept = &values[cut..values.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// A fixed-size log-linear histogram: memory does not grow with the
/// number of samples, so a long window cannot move the benchmark's own
/// footprint. Each bucket keeps its count and the exact sum of its
/// values; a quantile reads the mean of the bucket holding its nearest
/// rank.
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64]>,
    sums: Box<[u128]>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            sums: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }
}

impl Histogram {
    /// Records `count` samples of value `v`.
    pub fn record(&mut self, v: u64, count: u64) {
        let b = bucket(v);
        self.counts[b] += count;
        self.sums[b] += u128::from(v) * u128::from(count);
        self.total += count;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Samples ranked after quantile `q`'s nearest rank.
    pub fn beyond(&self, q: f64) -> u64 {
        self.total - nearest_rank(q, self.total).min(self.total)
    }

    /// Quantile `q` by nearest rank, to within the bucket width.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = nearest_rank(q, self.total);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if c > 0 && seen >= rank {
                return Some(self.sums[b] as f64 / c as f64);
            }
        }
        unreachable!("rank {rank} is at most the sample count")
    }

    /// Sum of the samples in buckets wholly above `threshold`.
    pub fn sum_above(&self, threshold: u64) -> u128 {
        let from = bucket(threshold) + 1;
        self.sums[from.min(BUCKETS)..].iter().sum()
    }
}

/// Nanoseconds of `[start, end)` that none of `children` covers. The
/// children may overlap one another and are clipped to the interval.
fn self_time(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start) - covered
}

/// Parent span id → indices of its child spans.
fn children(spans: &[SpanRecord]) -> HashMap<u64, Vec<usize>> {
    let mut kids: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            kids.entry(p).or_default().push(i);
        }
    }
    kids
}

/// The first `trees` span trees (by start time) rooted at each of
/// `roots`, every span of a tree included: a bounded excerpt of a traced
/// window that keeps whole trees, so every kept span's parent is kept.
pub fn excerpt(spans: &[SpanRecord], roots: &[&str], trees: usize) -> Vec<SpanRecord> {
    let kids = children(spans);
    let mut out = Vec::new();
    for &name in roots {
        let mut tops: Vec<usize> = (0..spans.len())
            .filter(|&i| spans[i].parent.is_none() && spans[i].name == name)
            .collect();
        tops.sort_by_key(|&i| spans[i].start_ns);
        let mut stack: Vec<usize> = tops.into_iter().take(trees).collect();
        while let Some(i) = stack.pop() {
            out.push(spans[i]);
            stack.extend(kids.get(&spans[i].id).map_or(&[][..], Vec::as_slice));
        }
    }
    out
}

/// One span name's time under one root name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LedgerRow {
    /// Spans recorded.
    pub count: u64,
    /// Inclusive time.
    pub total_ns: u64,
    /// Time not covered by child spans.
    pub self_ns: u64,
}

/// How much of one root name's time its named children cover.
#[derive(Clone, Debug, PartialEq)]
pub struct RootCoverage {
    /// Root spans recorded.
    pub count: u64,
    /// Their total time.
    pub total_ns: u64,
    /// The part of it covered by child spans.
    pub covered_ns: u64,
    /// The lowest coverage of any single root span.
    pub min_share: f64,
}

impl RootCoverage {
    /// Covered share of the total root time.
    pub fn share(&self) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            self.covered_ns as f64 / self.total_ns as f64
        }
    }
}

/// A traced window split into self times: every span under a chosen
/// root, keyed by `(root name, span name)`. Spans whose root is not one
/// of the chosen names, or whose parent was never recorded (it started
/// before tracing did), are left out.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// `(root name, span name)` → time.
    pub rows: BTreeMap<(&'static str, &'static str), LedgerRow>,
    /// Root name → coverage by its children.
    pub roots: BTreeMap<&'static str, RootCoverage>,
}

impl Ledger {
    /// Builds the ledger of every span tree rooted at one of `roots`.
    pub fn build(spans: &[SpanRecord], roots: &[&'static str]) -> Ledger {
        let kids = children(spans);
        let mut ledger = Ledger::default();
        for (i, root) in spans.iter().enumerate() {
            let Some(&root_name) = roots.iter().find(|&&r| r == root.name) else {
                continue;
            };
            if root.parent.is_some() {
                continue;
            }
            let mut stack = vec![i];
            while let Some(j) = stack.pop() {
                let s = &spans[j];
                let children = kids.get(&s.id).map_or(&[][..], Vec::as_slice);
                let mut iv: Vec<(u64, u64)> = children
                    .iter()
                    .map(|&c| (spans[c].start_ns, spans[c].end_ns))
                    .collect();
                let own = self_time(s.start_ns, s.end_ns, &mut iv);
                let row = ledger.rows.entry((root_name, s.name)).or_default();
                row.count += 1;
                row.total_ns += s.duration_ns();
                row.self_ns += own;
                if j == i {
                    let dur = s.duration_ns();
                    let share = if dur == 0 {
                        1.0
                    } else {
                        (dur - own) as f64 / dur as f64
                    };
                    let cov = ledger.roots.entry(root_name).or_insert(RootCoverage {
                        count: 0,
                        total_ns: 0,
                        covered_ns: 0,
                        min_share: 1.0,
                    });
                    cov.count += 1;
                    cov.total_ns += dur;
                    cov.covered_ns += dur - own;
                    cov.min_share = cov.min_share.min(share);
                }
                stack.extend_from_slice(children);
            }
        }
        ledger
    }

    /// The span name's time summed over every root it appears under.
    pub fn row(&self, name: &str) -> LedgerRow {
        let mut out = LedgerRow::default();
        for (_, r) in self.rows.iter().filter(|((_, n), _)| *n == name) {
            out.count += r.count;
            out.total_ns += r.total_ns;
            out.self_ns += r.self_ns;
        }
        out
    }

    /// The ledger as a table: span name, count, total, self time, and
    /// self time as a share of its root name's total.
    pub fn table(&self) -> String {
        let width = self
            .rows
            .keys()
            .map(|(_, n)| n.len())
            .max()
            .unwrap_or(0)
            .max("span".len());
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  {:<width$}  {:>8} {:>12} {:>12} {:>7}",
            "span", "count", "total(ms)", "self(ms)", "share"
        );
        for (&root, cov) in &self.roots {
            let _ = writeln!(
                out,
                "  [{root}: {} roots, children cover {:.1}% (lowest single root {:.1}%)]",
                cov.count,
                100.0 * cov.share(),
                100.0 * cov.min_share
            );
            let mut rows: Vec<_> = self.rows.iter().filter(|((r, _), _)| *r == root).collect();
            rows.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(b.0)));
            for ((_, name), row) in rows {
                let _ = writeln!(
                    out,
                    "  {:<width$}  {:>8} {:>12.3} {:>12.3} {:>6.1}%",
                    name,
                    row.count,
                    row.total_ns as f64 / 1e6,
                    row.self_ns as f64 / 1e6,
                    100.0 * row.self_ns as f64 / cov.total_ns.max(1) as f64
                );
            }
        }
        out
    }
}

/// Tables, rows per table and lookups per reading of the host probe:
/// the measured configuration's k = 16 APs over n = 4096 nodes, one
/// client batch.
const PROBE_TABLES: usize = 16;
const PROBE_ROWS: usize = 4096;
const PROBE_LOOKUPS: usize = 1024;
/// Readings per [`HostProbe::run`]; it returns their median.
const PROBE_READINGS: usize = 5;

/// A host-probe table row, laid out like a snapshot's
/// `Option<UnicastPricing>`: a cost next to a heap-allocated path.
#[derive(Clone, Debug, PartialEq)]
struct ProbeRow {
    path: Vec<u32>,
    payments: Vec<(u32, u64)>,
    cost: u64,
}

/// A fixed kernel shaped like the serve path, that measures how fast the
/// host runs this kind of work right now: each lookup picks the cheapest
/// of 16 rows at one index, as the anycast argmin does, and clones it;
/// the clones are dropped at the end. On a shared host the other tenants
/// move this benchmark's timings by tens of percent within seconds; the
/// kernel slows with them, and scaling timings by its reading (see
/// `PIPELINE.md`) removes part of that drift. It never calls the program
/// under test, so no change to the program can move it.
pub struct HostProbe {
    tables: Vec<Vec<ProbeRow>>,
    picks: Vec<u32>,
}

impl Default for HostProbe {
    fn default() -> HostProbe {
        let mut rng = SmallRng::seed_from_u64(0x9be5_c0de);
        let tables = (0..PROBE_TABLES)
            .map(|_| {
                (0..PROBE_ROWS)
                    .map(|_| {
                        let hops = rng.gen_range(2u32..16);
                        ProbeRow {
                            path: (0..hops).collect(),
                            payments: (1..hops).map(|v| (v, u64::from(v))).collect(),
                            cost: rng.gen_range(0..1_000_000),
                        }
                    })
                    .collect()
            })
            .collect();
        let picks = (0..PROBE_LOOKUPS)
            .map(|_| rng.gen_range(0..PROBE_ROWS as u32))
            .collect();
        HostProbe { tables, picks }
    }
}

impl HostProbe {
    fn reading(&self) -> f64 {
        let t = std::time::Instant::now();
        let mut out: Vec<ProbeRow> = Vec::with_capacity(self.picks.len());
        for &i in &self.picks {
            let rows = self.tables.iter().map(|t| &t[i as usize]);
            if let Some(best) = rows.min_by_key(|r| r.cost) {
                out.push(best.clone());
            }
        }
        drop(std::hint::black_box(out));
        t.elapsed().as_nanos() as f64 / PROBE_LOOKUPS as f64
    }

    /// Median of a few back-to-back readings, in nanoseconds per lookup.
    pub fn run(&self) -> f64 {
        let mut r: Vec<f64> = (0..PROBE_READINGS).map(|_| self.reading()).collect();
        r.sort_by(f64::total_cmp);
        r[PROBE_READINGS / 2]
    }
}

/// FNV-1a digest of a settlement's pricing: path, LCP cost and every
/// relay payment. Two pricings with equal digests are taken as equal by
/// the oracle gate.
pub fn pricing_digest(p: &UnicastPricing) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(p.path.len() as u64);
    for v in &p.path {
        eat(u64::from(v.0));
    }
    eat(p.lcp_cost.micros());
    for &(r, c) in &p.payments {
        eat(u64::from(r.0));
        eat(c.micros());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle(sorted: &[u64], q: f64) -> u64 {
        sorted[nearest_rank(q, sorted.len() as u64) as usize - 1]
    }

    #[test]
    fn nearest_rank_matches_definition() {
        assert_eq!(nearest_rank(0.5, 4), 2);
        assert_eq!(nearest_rank(0.99, 1000), 990);
        assert_eq!(nearest_rank(0.8, 60), 48);
        assert_eq!(nearest_rank(1.0, 7), 7);
        assert_eq!(nearest_rank(0.0, 7), 1);
    }

    #[test]
    fn histogram_quantiles_match_sorted_oracle() {
        let mut rng = SmallRng::seed_from_u64(7);
        for n in [1usize, 9, 60, 1000, 25_000] {
            let mut h = Histogram::default();
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                // Mostly sub-millisecond, with a heavy tail to 1 s.
                let v = if rng.gen_bool(0.02) {
                    rng.gen_range(1_000_000..1_000_000_000)
                } else {
                    rng.gen_range(0..800_000)
                };
                h.record(v, 1);
                values.push(v);
            }
            values.sort_unstable();
            assert_eq!(h.count(), n as u64);
            for q in [0.0, 0.5, 0.8, 0.9, 0.99, 0.999, 1.0] {
                let want = oracle(&values, q);
                let got = h.quantile(q).unwrap();
                assert_eq!(bucket(got as u64), bucket(want), "n={n} q={q}");
                assert!(
                    (got - want as f64).abs() <= want as f64 / SUB as f64 + 1.0,
                    "n={n} q={q}: {got} vs {want}"
                );
                let rank = nearest_rank(q, n as u64) as usize;
                assert_eq!(h.beyond(q), values[rank..].len() as u64);
            }
        }
    }

    #[test]
    fn histogram_is_exact_below_256_and_weights_records() {
        let mut h = Histogram::default();
        let mut values = Vec::new();
        for v in 0..200u64 {
            h.record(v, v % 3 + 1);
            values.extend(std::iter::repeat(v).take((v % 3 + 1) as usize));
        }
        for q in [0.1, 0.5, 0.8, 0.99] {
            assert_eq!(h.quantile(q).unwrap(), oracle(&values, q) as f64);
        }
    }

    #[test]
    fn ten_samples_beyond_p99_need_a_thousand() {
        let mut h = Histogram::default();
        for v in 0..999u64 {
            h.record(v, 1);
        }
        assert_eq!(h.beyond(0.99), 9);
        h.record(999, 1);
        assert_eq!(h.beyond(0.99), 10);
        // 60 epochs leave 12 beyond p80 but 6 beyond p90.
        let mut e = Histogram::default();
        e.record(5, 60);
        assert_eq!(e.beyond(0.8), 12);
        assert_eq!(e.beyond(0.9), 6);
    }

    #[test]
    fn sum_above_skips_the_threshold_bucket() {
        let mut h = Histogram::default();
        h.record(100, 10);
        h.record(5_000, 2);
        assert_eq!(h.sum_above(1_000), 10_000);
        assert_eq!(h.sum_above(100), 10_000);
        assert_eq!(h.sum_above(10_000), 0);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        let v = vec![9.0, 1.0, 5.0, 4.0, 100.0, 3.0, 6.0, 2.0, 7.0, 8.0];
        // Ten values: the two lowest and the two highest are dropped.
        assert_eq!(
            interquartile_mean(v),
            (3.0 + 4.0 + 5.0 + 6.0 + 7.0 + 8.0) / 6.0
        );
        assert_eq!(interquartile_mean(vec![2.0, 4.0, 9.0]), 5.0);
        assert!(interquartile_mean(Vec::new()).is_nan());
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children [10, 50) and [30, 70) overlap on [30, 50): together
        // they cover 60 of the parent's 100 ns.
        assert_eq!(self_time(0, 100, &mut [(30, 70), (10, 50)]), 40);
        // Nested and clipped children.
        assert_eq!(self_time(0, 100, &mut [(20, 30), (0, 80), (90, 150)]), 10);
        assert_eq!(self_time(0, 100, &mut []), 100);
    }

    #[test]
    fn ledger_splits_roots_into_self_times() {
        let span = |id, parent, name, start_ns, end_ns| SpanRecord {
            id,
            parent,
            name,
            thread: 1,
            start_ns,
            end_ns,
        };
        let spans = vec![
            span(2, Some(1), "child.a", 10, 50),
            span(3, Some(1), "child.b", 30, 90),
            span(4, Some(3), "leaf", 40, 60),
            span(1, None, "root", 0, 100),
            // A second root fully covered by one child.
            span(6, Some(5), "child.a", 200, 300),
            span(5, None, "root", 200, 300),
            // Not under a chosen root: left out.
            span(7, None, "other", 0, 10),
            span(8, Some(99), "orphan", 0, 10),
        ];
        let ledger = Ledger::build(&spans, &["root"]);
        assert_eq!(
            ledger.row("root"),
            LedgerRow {
                count: 2,
                total_ns: 200,
                self_ns: 20
            }
        );
        assert_eq!(ledger.row("child.a").self_ns, 40 + 100);
        assert_eq!(ledger.row("child.b").self_ns, 40);
        assert_eq!(ledger.row("leaf").self_ns, 20);
        assert_eq!(ledger.row("other"), LedgerRow::default());
        assert_eq!(ledger.row("orphan"), LedgerRow::default());
        let kept = excerpt(&spans, &["root"], 1);
        let mut ids: Vec<u64> = kept.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3, 4]);
        assert_eq!(excerpt(&spans, &["root", "other"], 5).len(), 7);
        let cov = &ledger.roots["root"];
        assert_eq!((cov.count, cov.total_ns, cov.covered_ns), (2, 200, 180));
        assert!((cov.min_share - 0.8).abs() < 1e-12);
        assert!(ledger.table().contains("child.b"));
    }

    #[test]
    fn lifo_churn_map_equals_the_identity_tag_map() {
        let mut dep = Deployment::new(Workload::Churn, 3, Scale::QUICK);
        for _ in 0..20 {
            let old_tags = dep.tags().to_vec();
            let map = dep.advance().expect("churn epochs are mapped");
            let by_tags = NodeMap::from_old_to_new(
                old_tags
                    .iter()
                    .map(|t| dep.tags().iter().position(|u| u == t).map(NodeId::new))
                    .collect(),
                dep.num_nodes(),
            );
            assert_eq!(map, by_tags);
            assert!(!map.is_identity());
            for i in 0..map.old_len() {
                let v = NodeId::new(i);
                assert!(map.to_new(v).map_or(true, |w| w == v), "{v} renumbered");
            }
            assert_eq!(map.born_count(), 2);
        }
        // Only nodes that joined during the run ever left.
        assert!(dep.tags()[..Scale::QUICK.n]
            .iter()
            .enumerate()
            .all(|(i, &t)| t == i as u64));
    }

    #[test]
    fn one_seed_yields_identical_epochs_and_batches() {
        for w in Workload::ALL {
            let mut a = Deployment::new(w, 11, Scale::QUICK);
            let mut b = Deployment::new(w, 11, Scale::QUICK);
            let mut c = Deployment::new(w, 12, Scale::QUICK);
            // Epoch 0 is the fixed topology; the seed drives what follows.
            assert_eq!(a.graph(), c.graph());
            for _ in 0..20 {
                assert_eq!(a.advance(), b.advance());
                c.advance();
                assert_eq!(a.graph(), b.graph());
            }
            assert_eq!(a.epoch(), 20);
            assert_eq!(a.graph() == c.graph(), w == Workload::Static);
        }
        let batch = |seed| {
            let mut s = SourceStream::new(seed, Scale::QUICK);
            (0..64).map(|_| s.next_source()).collect::<Vec<_>>()
        };
        assert_eq!(batch(11), batch(11));
        assert_ne!(batch(11), batch(12));
        assert!(batch(11).iter().all(|v| (2..256).contains(&v.index())));
    }

    #[test]
    fn probe_is_fixed_and_reads_positive() {
        let (a, b) = (HostProbe::default(), HostProbe::default());
        assert_eq!(a.tables, b.tables);
        assert_eq!(a.picks, b.picks);
        assert!(a.run() > 0.0);
    }

    #[test]
    fn digest_sees_every_field() {
        let p = UnicastPricing {
            path: vec![NodeId(3), NodeId(1), NodeId(0)],
            lcp_cost: Cost::from_units(4),
            payments: vec![(NodeId(1), Cost::from_units(6))],
        };
        let mut q = p.clone();
        assert_eq!(pricing_digest(&p), pricing_digest(&q));
        q.payments[0].1 = Cost::from_units(7);
        assert_ne!(pricing_digest(&p), pricing_digest(&q));
        let mut r = p.clone();
        r.path[1] = NodeId(2);
        assert_ne!(pricing_digest(&p), pricing_digest(&r));
    }
}
