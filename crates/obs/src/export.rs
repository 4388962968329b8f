//! Trace export: JSONL dumps, the human-readable summary table, and the
//! span-tree phase-attribution report.
//!
//! The JSONL schema (one JSON object per line, documented in DESIGN.md):
//!
//! ```text
//! {"type":"meta","harness":"truthcast-obs","version":2}
//! {"type":"counter","name":"graph.dijkstra.pops","value":123}
//! {"type":"histogram","name":"span.core.fast_payments_ns","count":4,
//!  "sum":..., "min":..., "max":..., "mean":..., "buckets":[[lo,count],...]}
//! {"type":"sketch","name":"core.batch.session_latency_ns","count":...,
//!  "min":...,"max":...,"p50":...,"p90":...,"p95":...,"p99":...}
//! {"type":"event","at_ns":1234,"kind":"protocol.session.settled",
//!  "fields":{"session_id":"1",...}}
//! {"type":"span","id":3,"parent":1,"name":"all_sources.spt_sweep",
//!  "thread":1,"start_ns":...,"end_ns":...}
//! {"type":"flow","phase":"send","from":0,"to":1,"seq":9,"kind":"bcast",
//!  "at_ns":...}
//! {"type":"payment_audit","algo":"fast","source":0,"target":3,"relay":1,
//!  "lcp_cost_micros":...,"replacement_cost_micros":...,
//!  "declared_cost_micros":...,"payment_micros":...,"consistent":true}
//! ```
//!
//! Infinite micro-amounts (`u64::MAX`) are serialized as the string
//! `"inf"` so consumers never mistake the sentinel for a real amount.
//! Span and flow lines appear only for profiling-mode runs; sketch
//! quantiles are exact nearest-rank order statistics.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::audit::{PaymentAudit, INF_MICROS};
use crate::collector::Snapshot;

/// Audit records printed in full by [`summary_table`] before it switches
/// to an "… and N more" line (totals stay exact either way).
const AUDIT_PRINT_CAP: usize = 20;

pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `u64::MAX` micro-amounts render as `"inf"`, everything else as a number.
fn json_micros(v: u64) -> String {
    if v == INF_MICROS {
        "\"inf\"".to_string()
    } else {
        v.to_string()
    }
}

fn audit_line(a: &PaymentAudit) -> String {
    format!(
        "{{\"type\":\"payment_audit\",\"algo\":{},\"source\":{},\"target\":{},\
         \"relay\":{},\"lcp_cost_micros\":{},\"replacement_cost_micros\":{},\
         \"declared_cost_micros\":{},\"payment_micros\":{},\"consistent\":{}}}",
        json_string(a.algo),
        a.source,
        a.target,
        a.relay,
        json_micros(a.lcp_cost_micros),
        json_micros(a.replacement_cost_micros),
        json_micros(a.declared_cost_micros),
        json_micros(a.payment_micros),
        a.is_consistent()
    )
}

/// Renders a snapshot as a JSONL document (see module docs for schema).
pub fn to_jsonl(snap: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str("{\"type\":\"meta\",\"harness\":\"truthcast-obs\",\"version\":2}\n");
    for (name, value) in &snap.counters {
        let _ = writeln!(
            out,
            "{{\"type\":\"counter\",\"name\":{},\"value\":{}}}",
            json_string(name),
            value
        );
    }
    for (name, h) in &snap.histograms {
        let buckets: Vec<String> = h
            .nonzero_buckets()
            .iter()
            .map(|&(lo, c)| format!("[{lo},{c}]"))
            .collect();
        let _ = writeln!(
            out,
            "{{\"type\":\"histogram\",\"name\":{},\"count\":{},\"sum\":{},\
             \"min\":{},\"max\":{},\"mean\":{:.1},\"buckets\":[{}]}}",
            json_string(name),
            h.count(),
            h.sum(),
            h.min().unwrap_or(0),
            h.max().unwrap_or(0),
            h.mean().unwrap_or(0.0),
            buckets.join(",")
        );
    }
    for (name, sk) in &snap.sketches {
        let _ = writeln!(
            out,
            "{{\"type\":\"sketch\",\"name\":{},\"count\":{},\"min\":{},\"max\":{},\
             \"p50\":{},\"p90\":{},\"p95\":{},\"p99\":{}}}",
            json_string(name),
            sk.count(),
            sk.min().unwrap_or(0),
            sk.max().unwrap_or(0),
            sk.quantile(0.50).unwrap_or(0),
            sk.quantile(0.90).unwrap_or(0),
            sk.quantile(0.95).unwrap_or(0),
            sk.quantile(0.99).unwrap_or(0),
        );
    }
    for ev in &snap.events {
        let fields: Vec<String> = ev
            .fields
            .iter()
            .map(|(k, v)| format!("{}:{}", json_string(k), json_string(v)))
            .collect();
        let _ = writeln!(
            out,
            "{{\"type\":\"event\",\"at_ns\":{},\"kind\":{},\"fields\":{{{}}}}}",
            ev.at_nanos,
            json_string(&ev.kind),
            fields.join(",")
        );
    }
    for s in &snap.spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"name\":{},\"thread\":{},\
             \"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            parent,
            json_string(s.name),
            s.thread,
            s.start_ns,
            s.end_ns
        );
    }
    for f in &snap.flows {
        let _ = writeln!(
            out,
            "{{\"type\":\"flow\",\"phase\":{},\"from\":{},\"to\":{},\"seq\":{},\
             \"kind\":{},\"at_ns\":{}}}",
            json_string(f.phase.as_str()),
            f.from,
            f.to,
            f.seq,
            json_string(f.kind),
            f.at_nanos
        );
    }
    for a in &snap.audits {
        out.push_str(&audit_line(a));
        out.push('\n');
    }
    out
}

fn fmt_value(v: u64) -> String {
    if v == INF_MICROS {
        "inf".to_string()
    } else {
        v.to_string()
    }
}

/// Renders a snapshot as an aligned, human-readable summary: counters,
/// histogram digests, exact sketch quantiles, audit-trail totals (the
/// first 20 records in full), and the event count.
pub fn summary_table(snap: &Snapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== truthcast-obs summary ==");
    if !snap.counters.is_empty() {
        let width = snap
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(0);
        let _ = writeln!(out, "counters:");
        for (name, value) in &snap.counters {
            let _ = writeln!(out, "  {name:<width$}  {value:>12}");
        }
    }
    if !snap.histograms.is_empty() {
        let width = snap
            .histograms
            .iter()
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(0);
        let _ = writeln!(out, "histograms:");
        let _ = writeln!(
            out,
            "  {:<width$}  {:>8} {:>12} {:>12} {:>12} {:>12}",
            "name", "count", "min", "~p50", "max", "mean"
        );
        for (name, h) in &snap.histograms {
            let _ = writeln!(
                out,
                "  {:<width$}  {:>8} {:>12} {:>12} {:>12} {:>12.1}",
                name,
                h.count(),
                h.min().unwrap_or(0),
                h.approx_quantile(0.5).unwrap_or(0),
                h.max().unwrap_or(0),
                h.mean().unwrap_or(0.0)
            );
        }
    }
    if !snap.sketches.is_empty() {
        let width = snap
            .sketches
            .iter()
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(0);
        let _ = writeln!(out, "quantile sketches (exact nearest-rank):");
        let _ = writeln!(
            out,
            "  {:<width$}  {:>8} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "name", "count", "p50", "p90", "p95", "p99", "max"
        );
        for (name, sk) in &snap.sketches {
            let _ = writeln!(
                out,
                "  {:<width$}  {:>8} {:>12} {:>12} {:>12} {:>12} {:>12}",
                name,
                sk.count(),
                sk.quantile(0.50).unwrap_or(0),
                sk.quantile(0.90).unwrap_or(0),
                sk.quantile(0.95).unwrap_or(0),
                sk.quantile(0.99).unwrap_or(0),
                sk.max().unwrap_or(0),
            );
        }
    }
    if !snap.audits.is_empty() {
        let consistent = snap.audits.iter().filter(|a| a.is_consistent()).count();
        let _ = writeln!(
            out,
            "payment audits: {} records, {} consistent",
            snap.audits.len(),
            consistent
        );
        for a in snap.audits.iter().take(AUDIT_PRINT_CAP) {
            let _ = writeln!(
                out,
                "  [{}] {}->{} relay {}: lcp {} repl {} declared {} => paid {}{}",
                a.algo,
                a.source,
                a.target,
                a.relay,
                fmt_value(a.lcp_cost_micros),
                fmt_value(a.replacement_cost_micros),
                fmt_value(a.declared_cost_micros),
                fmt_value(a.payment_micros),
                if a.is_consistent() {
                    ""
                } else {
                    "  !! INCONSISTENT"
                }
            );
        }
        if snap.audits.len() > AUDIT_PRINT_CAP {
            let _ = writeln!(
                out,
                "  … and {} more (totals above cover all records)",
                snap.audits.len() - AUDIT_PRINT_CAP
            );
        }
    }
    let _ = writeln!(out, "events: {}", snap.events.len());
    out
}

/// Aggregates the snapshot's span tree into a per-phase time-attribution
/// table: for every span name, how often it ran, its total (inclusive)
/// wall time, and its *self* time — total minus the time covered by its
/// child spans — as a share of all root-span time. `None` when the
/// snapshot holds no spans (profiling was off).
///
/// Self-time shares sum to ~100% across the table, so a root span whose
/// named child phases cover ≥95% of its wall time shows ≤5% self.
pub fn phase_attribution(snap: &Snapshot) -> Option<String> {
    if snap.spans.is_empty() {
        return None;
    }
    // Per-span child time (children may run on other threads only if the
    // caller threaded a parent through; the tree is thread-causal, so
    // children of a span are on its own thread and nested in time).
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in &snap.spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_insert(0) += s.duration_ns();
        }
    }
    struct Row {
        count: u64,
        total_ns: u64,
        self_ns: u64,
    }
    let mut rows: BTreeMap<&'static str, Row> = BTreeMap::new();
    let mut root_ns: u64 = 0;
    for s in &snap.spans {
        let covered = child_ns.get(&s.id).copied().unwrap_or(0);
        let row = rows.entry(s.name).or_insert(Row {
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.count += 1;
        row.total_ns += s.duration_ns();
        row.self_ns += s.duration_ns().saturating_sub(covered);
        if s.parent.is_none() {
            root_ns += s.duration_ns();
        }
    }
    let mut ordered: Vec<(&'static str, Row)> = rows.into_iter().collect();
    ordered.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(b.0)));
    let width = ordered
        .iter()
        .map(|(n, _)| n.len())
        .max()
        .unwrap_or(0)
        .max("phase".len());
    let mut out = String::new();
    let _ = writeln!(out, "phase attribution ({} spans):", snap.spans.len());
    let _ = writeln!(
        out,
        "  {:<width$}  {:>7} {:>12} {:>12} {:>7}",
        "phase", "count", "total(ms)", "self(ms)", "self%"
    );
    for (name, row) in &ordered {
        let pct = if root_ns == 0 {
            0.0
        } else {
            100.0 * row.self_ns as f64 / root_ns as f64
        };
        let _ = writeln!(
            out,
            "  {:<width$}  {:>7} {:>12.3} {:>12.3} {:>6.1}%",
            name,
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6,
            pct
        );
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{Collector, FlowPhase};
    use crate::span::SpanRecord;

    fn sample_snapshot() -> Snapshot {
        let c = Collector::new();
        c.add("graph.dijkstra.pops", 7);
        c.observe("span.test_ns", 1500);
        c.sample_many("core.batch.session_latency_ns", &[100, 200, 300, 400]);
        c.event("protocol.session.settled", &[("id", "9".to_string())]);
        c.record_span(SpanRecord {
            id: 1,
            parent: None,
            name: "outer",
            thread: 1,
            start_ns: 0,
            end_ns: 1_000_000,
        });
        c.record_span(SpanRecord {
            id: 2,
            parent: Some(1),
            name: "inner",
            thread: 1,
            start_ns: 100,
            end_ns: 960_100,
        });
        c.flow(FlowPhase::Send, 0, 1, 3, "bcast");
        c.flow(FlowPhase::Deliver, 0, 1, 3, "bcast");
        c.audit(PaymentAudit {
            algo: "fast",
            source: 0,
            target: 3,
            relay: 1,
            lcp_cost_micros: 5_000_000,
            replacement_cost_micros: 7_000_000,
            declared_cost_micros: 5_000_000,
            payment_micros: 7_000_000,
        });
        c.audit(PaymentAudit {
            algo: "fast",
            source: 0,
            target: 3,
            relay: 2,
            lcp_cost_micros: 5_000_000,
            replacement_cost_micros: INF_MICROS,
            declared_cost_micros: 1,
            payment_micros: INF_MICROS,
        });
        c.snapshot()
    }

    #[test]
    fn jsonl_has_one_object_per_line() {
        let doc = to_jsonl(&sample_snapshot());
        for line in doc.lines() {
            assert!(
                line.starts_with("{\"type\":\"") && line.ends_with('}'),
                "{line}"
            );
            assert_eq!(line.matches('{').count(), line.matches('}').count());
            assert_eq!(line.matches('[').count(), line.matches(']').count());
        }
        assert!(doc.contains("\"type\":\"meta\""));
        assert!(doc.contains("\"type\":\"counter\""));
        assert!(doc.contains("\"type\":\"histogram\""));
        assert!(doc.contains("\"type\":\"sketch\""));
        assert!(doc.contains("\"type\":\"event\""));
        assert!(doc.contains("\"type\":\"span\""));
        assert!(doc.contains("\"type\":\"flow\""));
        assert!(doc.contains("\"type\":\"payment_audit\""));
    }

    #[test]
    fn infinite_amounts_serialize_as_inf_string() {
        let doc = to_jsonl(&sample_snapshot());
        assert!(doc.contains("\"replacement_cost_micros\":\"inf\""));
        assert!(!doc.contains(&u64::MAX.to_string()));
    }

    #[test]
    fn audit_lines_carry_consistency() {
        let doc = to_jsonl(&sample_snapshot());
        assert!(doc.contains("\"consistent\":true"));
    }

    #[test]
    fn summary_mentions_every_section() {
        let table = summary_table(&sample_snapshot());
        assert!(table.contains("counters:"));
        assert!(table.contains("graph.dijkstra.pops"));
        assert!(table.contains("histograms:"));
        assert!(table.contains("quantile sketches"));
        assert!(table.contains("core.batch.session_latency_ns"));
        assert!(table.contains("payment audits: 2 records, 2 consistent"));
        assert!(table.contains("events: 1"));
        assert!(table.contains("repl inf"));
    }

    #[test]
    fn summary_prints_registered_zero_counters() {
        // A counter registered but never incremented must appear in the
        // summary (and JSONL) as an explicit zero: absent shed counters
        // would hide "no shedding happened" from load reports.
        let c = Collector::new();
        c.register("service.sessions.shed");
        c.add("service.sessions.settled", 7);
        let snap = c.snapshot();
        let table = summary_table(&snap);
        let shed = table
            .lines()
            .find(|l| l.contains("service.sessions.shed"))
            .expect("registered zero counter missing from summary");
        assert!(shed.trim_end().ends_with(" 0"), "{shed}");
        assert!(to_jsonl(&snap).contains("\"name\":\"service.sessions.shed\",\"value\":0"));
    }

    #[test]
    fn summary_sketch_quantiles_are_exact() {
        let table = summary_table(&sample_snapshot());
        // Samples {100,200,300,400}: p50=200 (rank 2), p95/p99=400 (rank 4).
        let line = table
            .lines()
            .find(|l| l.contains("core.batch.session_latency_ns"))
            .unwrap();
        let cols: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(cols[1..], ["4", "200", "400", "400", "400", "400"]);
    }

    #[test]
    fn summary_caps_audit_records_with_exact_totals() {
        let c = Collector::new();
        for relay in 0..30u32 {
            c.audit(PaymentAudit {
                algo: "fast",
                source: 0,
                target: 99,
                relay,
                lcp_cost_micros: 1,
                replacement_cost_micros: 2,
                declared_cost_micros: 1,
                payment_micros: 2,
            });
        }
        let table = summary_table(&c.snapshot());
        assert!(table.contains("payment audits: 30 records, 30 consistent"));
        assert!(table.contains("… and 10 more"));
        let printed = table.lines().filter(|l| l.contains("relay ")).count();
        assert_eq!(printed, AUDIT_PRINT_CAP);
    }

    #[test]
    fn phase_attribution_reports_self_time_shares() {
        let snap = sample_snapshot();
        let table = phase_attribution(&snap).unwrap();
        // outer: 1ms total, 0.04ms self (4%); inner: 0.96ms self (96%).
        assert!(table.contains("phase attribution (2 spans):"));
        let outer = table.lines().find(|l| l.contains("outer")).unwrap();
        assert!(outer.contains("4.0%"), "{outer}");
        let inner = table.lines().find(|l| l.contains("inner")).unwrap();
        assert!(inner.contains("96.0%"), "{inner}");
        assert!(phase_attribution(&Snapshot::default()).is_none());
    }
}
