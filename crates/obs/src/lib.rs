//! # truthcast-obs
//!
//! Zero-dependency (std-only) observability for the `truthcast`
//! workspace: named monotonic counters, log-bucketed histograms, RAII
//! timing spans with an optional **causal span tree**, structured
//! events, per-relay **payment audit records**, cross-node **message
//! flows**, and exact-quantile sketches — plus JSONL trace export, a
//! Chrome `trace_event` profile export, and a human-readable summary.
//!
//! ## Cost model
//!
//! Tracing is **off by default**. Every global entry point loads one
//! relaxed [`AtomicBool`] and branches away, so the disabled-mode cost of
//! an instrumented call site is a predictable not-taken branch — no lock,
//! no allocation, no syscall. Instrumented hot loops are additionally
//! expected to *batch*: accumulate plain local integers inside the loop
//! and flush them through [`add`]/[`observe`]/[`sample_many`] once per
//! sweep, so even enabled-mode tracing takes the collector lock `O(1)`
//! times per priced unicast rather than per heap operation.
//!
//! **Profiling** ([`profiling`]) is a second, independent gate layered on
//! top of tracing: only when it is on do spans capture structured
//! [`span::SpanRecord`]s (ids, parents, timestamps) and does the distsim
//! engine emit per-message flow records. Enabled-but-not-profiling runs
//! therefore keep the PR-2 cost profile — histograms and counters only.
//!
//! ## Usage
//!
//! ```
//! truthcast_obs::enable();
//! truthcast_obs::reset();
//! {
//!     let _span = truthcast_obs::span("example.work");
//!     truthcast_obs::add("example.widgets", 3);
//! }
//! let snap = truthcast_obs::snapshot();
//! assert_eq!(snap.counter("example.widgets"), 3);
//! assert!(snap.histogram("span.example.work_ns").is_some());
//! truthcast_obs::disable();
//! ```
//!
//! ## Trace export
//!
//! Set `TRUTHCAST_TRACE=<path>` and/or `TRUTHCAST_PROFILE=<path>` and
//! call [`init_from_env`] early (the experiment binaries do); hold the
//! returned [`FlushGuard`] for the life of the run. At the end, [`flush`]
//! writes the collector as JSONL to the trace path and [`flush_profile`]
//! writes a Chrome `trace_event` JSON (loadable in Perfetto /
//! `chrome://tracing`) to the profile path; the guard re-runs both on a
//! panicking unwind so a crashing experiment still leaves its partial
//! trace behind. Schemas are documented in [`export`], [`chrome`], and
//! DESIGN.md.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod chrome;
pub mod collector;
pub mod export;
pub mod hist;
pub mod sketch;
pub mod span;

pub use audit::{PaymentAudit, INF_MICROS};
pub use chrome::{to_chrome_trace, validate_chrome_trace, validate_jsonl, ChromeTraceStats};
pub use collector::{Collector, FlowPhase, FlowRecord, Snapshot, TraceEvent};
pub use hist::Histogram;
pub use sketch::QuantileSketch;
pub use span::{Span, SpanRecord};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// The environment variable naming the JSONL trace output path.
pub const TRACE_ENV: &str = "TRUTHCAST_TRACE";

/// The environment variable naming the Chrome `trace_event` JSON output
/// path. Setting it also turns on [`profiling`] via [`init_from_env`].
pub const PROFILE_ENV: &str = "TRUTHCAST_PROFILE";

static ENABLED: AtomicBool = AtomicBool::new(false);
static PROFILING: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Collector> = OnceLock::new();

/// The process-wide collector (created on first use).
pub fn collector() -> &'static Collector {
    GLOBAL.get_or_init(Collector::new)
}

/// Whether tracing is currently enabled. One relaxed atomic load — this
/// is the *entire* disabled-mode overhead of every instrumentation point.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the global sink on.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns the global sink off (already-collected data is kept).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether profiling (span tree + message flows) is enabled. Checked on
/// top of [`enabled`]; same single-relaxed-load cost.
#[inline(always)]
pub fn profiling() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

/// Turns span-tree/flow capture on (implies nothing about [`enabled`];
/// callers normally [`enable`] too, since spans start at [`span()`] which
/// is gated on it).
pub fn enable_profiling() {
    PROFILING.store(true, Ordering::Relaxed);
}

/// Turns span-tree/flow capture off (already-collected data is kept).
pub fn disable_profiling() {
    PROFILING.store(false, Ordering::Relaxed);
}

/// An RAII guard returned by [`init_from_env`]: while held, a panicking
/// unwind still flushes the [`TRACE_ENV`]/[`PROFILE_ENV`] outputs, so a
/// crashing experiment leaves its partial trace on disk. Inert (and
/// cheap) when neither variable is set.
#[must_use = "hold the FlushGuard for the whole run; dropping it disarms panic-time trace flushing"]
pub struct FlushGuard {
    tracing: bool,
    profiling: bool,
}

impl FlushGuard {
    /// A guard that will never flush (no env vars set).
    pub const fn inactive() -> FlushGuard {
        FlushGuard {
            tracing: false,
            profiling: false,
        }
    }

    /// Whether [`TRACE_ENV`] armed JSONL tracing.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Whether [`PROFILE_ENV`] armed Chrome-trace profiling.
    pub fn profiling(&self) -> bool {
        self.profiling
    }

    /// Whether either output is armed.
    pub fn active(&self) -> bool {
        self.tracing || self.profiling
    }
}

impl Drop for FlushGuard {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        if self.tracing {
            if let Some(path) = flush() {
                eprintln!("truthcast-obs: panic unwind — partial JSONL trace flushed to {path:?}");
            }
        }
        if self.profiling {
            if let Some(path) = flush_profile() {
                eprintln!("truthcast-obs: panic unwind — partial Chrome trace flushed to {path:?}");
            }
        }
    }
}

/// Enables tracing if [`TRACE_ENV`] is set to a non-empty path, and
/// additionally enables [`profiling`] if [`PROFILE_ENV`] is. Returns a
/// [`FlushGuard`] that flushes partial output on a panicking unwind —
/// experiment binaries call this at startup and hold the guard for the
/// whole run, so `TRUTHCAST_PROFILE=run.json figures …` profiles without
/// a code change and a crash mid-run still leaves the trace behind.
pub fn init_from_env() -> FlushGuard {
    let set = |var: &str| std::env::var(var).is_ok_and(|p| !p.is_empty());
    let tracing = set(TRACE_ENV);
    let profiling = set(PROFILE_ENV);
    if tracing || profiling {
        enable();
    }
    if profiling {
        enable_profiling();
    }
    FlushGuard { tracing, profiling }
}

/// Adds `delta` to the named counter (no-op while disabled).
#[inline]
pub fn add(name: &str, delta: u64) {
    if enabled() {
        collector().add(name, delta);
    }
}

/// Registers the named counter at zero (no-op while disabled), so the
/// summary table and exports report it even if it is never incremented —
/// "zero shed sessions" is load-report data, not an omission. See
/// [`Collector::register`].
#[inline]
pub fn register(name: &str) {
    if enabled() {
        collector().register(name);
    }
}

/// Records `value` into the named histogram (no-op while disabled).
#[inline]
pub fn observe(name: &str, value: u64) {
    if enabled() {
        collector().observe(name, value);
    }
}

/// Records `value` into the named exact-quantile sketch (no-op while
/// disabled).
#[inline]
pub fn sample(name: &str, value: u64) {
    if enabled() {
        collector().sample(name, value);
    }
}

/// Records a batch of samples into the named exact-quantile sketch under
/// one lock acquisition (no-op while disabled). The batching entry point
/// for per-session latencies and similar hot-loop measurements.
#[inline]
pub fn sample_many(name: &str, values: &[u64]) {
    if enabled() {
        collector().sample_many(name, values);
    }
}

/// Emits a structured event (no-op while disabled).
#[inline]
pub fn event(kind: &str, fields: &[(&str, String)]) {
    if enabled() {
        collector().event(kind, fields);
    }
}

/// Appends a payment audit record (no-op while disabled).
#[inline]
pub fn audit(record: PaymentAudit) {
    if enabled() {
        collector().audit(record);
    }
}

/// Starts a timing span named `name`; inert while disabled. While
/// [`profiling`] is also on, the span joins the causal tree (parented
/// under the innermost open span on this thread) and is exported to
/// Chrome traces.
#[inline]
pub fn span(name: &'static str) -> Span {
    if enabled() {
        Span::started(name)
    } else {
        Span::noop()
    }
}

/// Records a message-send flow end (no-op unless [`profiling`]).
#[inline]
pub fn flow_send(from: u32, to: u32, seq: u64, kind: &'static str) {
    if profiling() {
        collector().flow(FlowPhase::Send, from, to, seq, kind);
    }
}

/// Records a message-delivery flow end (no-op unless [`profiling`]).
#[inline]
pub fn flow_deliver(from: u32, to: u32, seq: u64, kind: &'static str) {
    if profiling() {
        collector().flow(FlowPhase::Deliver, from, to, seq, kind);
    }
}

/// Records an in-flight message drop (no-op unless [`profiling`]).
#[inline]
pub fn flow_drop(from: u32, to: u32, seq: u64, kind: &'static str) {
    if profiling() {
        collector().flow(FlowPhase::Drop, from, to, seq, kind);
    }
}

/// Copies out the global collector's contents.
pub fn snapshot() -> Snapshot {
    collector().snapshot()
}

/// Clears the global collector.
pub fn reset() {
    collector().reset();
}

/// The global collector as a human-readable summary table.
pub fn summary() -> String {
    export::summary_table(&snapshot())
}

/// Writes the global collector as JSONL to `path`.
pub fn write_jsonl(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, export::to_jsonl(&snapshot()))
}

/// Writes the global collector's span tree and message flows as a Chrome
/// `trace_event` JSON document to `path`.
pub fn write_chrome(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, to_chrome_trace(&snapshot()))
}

fn env_path(var: &str) -> Option<std::path::PathBuf> {
    Some(std::path::PathBuf::from(
        std::env::var(var).ok().filter(|p| !p.is_empty())?,
    ))
}

/// Writes the global collector as JSONL to the [`TRACE_ENV`] path, if
/// set. Returns the path written, `None` if the variable is unset, and
/// prints (rather than panics) on I/O failure — tracing must never take
/// a run down.
pub fn flush() -> Option<std::path::PathBuf> {
    let path = env_path(TRACE_ENV)?;
    match write_jsonl(&path) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("truthcast-obs: failed to write trace to {path:?}: {e}");
            None
        }
    }
}

/// Writes the Chrome trace to the [`PROFILE_ENV`] path, if set. Same
/// contract as [`flush`]: returns the path written, never panics.
pub fn flush_profile() -> Option<std::path::PathBuf> {
    let path = env_path(PROFILE_ENV)?;
    match write_chrome(&path) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("truthcast-obs: failed to write profile to {path:?}: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    // The global sink is process-wide; unit tests here stay away from it
    // (module tests cover `Collector` directly) except this one, which is
    // the only test in the crate touching the global toggles. Span-tree
    // and flow behavior on the global sink is covered by the
    // `tests/profiler.rs` integration binary (its own process).
    #[test]
    fn global_roundtrip() {
        assert!(!super::enabled());
        assert!(!super::profiling());
        super::add("ignored.while.disabled", 1);
        super::sample("ignored.sketch", 1);
        super::flow_send(0, 1, 1, "bcast");
        super::enable();
        super::reset();
        super::add("global.counter", 2);
        super::sample("global.sketch", 40);
        super::sample_many("global.sketch", &[10, 20, 30]);
        {
            let s = super::span("global.span");
            assert!(s.is_recording());
        }
        super::event("global.event", &[("k", "v".to_string())]);
        super::audit(super::PaymentAudit {
            algo: "test",
            source: 0,
            target: 1,
            relay: 2,
            lcp_cost_micros: 1,
            replacement_cost_micros: 2,
            declared_cost_micros: 3,
            payment_micros: 4,
        });
        let snap = super::snapshot();
        super::disable();
        assert_eq!(snap.counter("global.counter"), 2);
        assert_eq!(snap.counter("ignored.while.disabled"), 0);
        assert_eq!(snap.histogram("span.global.span_ns").unwrap().count(), 1);
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.audits.len(), 1);
        let sk = snap.sketch("global.sketch").unwrap();
        assert_eq!(sk.count(), 4);
        assert_eq!(sk.quantile(0.5), Some(20));
        assert!(snap.sketch("ignored.sketch").is_none());
        // Profiling stayed off: histogram recorded, but no tree/flows.
        assert!(snap.spans.is_empty());
        assert!(snap.flows.is_empty());
        assert!(!super::span("off").is_recording());
    }
}
