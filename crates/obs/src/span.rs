//! RAII timing spans over [`std::time::Instant`], with an optional
//! causal span *tree*.
//!
//! Every recording span still collapses into the `span.<name>_ns`
//! histogram on drop (via the interned-key path
//! [`crate::Collector::observe_span`] — no per-drop allocation). When
//! **profiling** is additionally enabled ([`crate::profiling`]), each
//! span also captures a structured [`SpanRecord`]: a process-unique id,
//! the id of the innermost open span on the same thread at start time
//! (its *parent*), a per-thread serial, and start/end timestamps on the
//! collector clock. The records form a forest that the Chrome-trace
//! exporter ([`crate::chrome::to_chrome_trace`]) renders as nested
//! duration events.
//!
//! Parent tracking uses a thread-local stack of open span ids, so the
//! tree is *causal within a thread*: spans opened on worker threads
//! (e.g. inside `par_map_with`) start their own roots rather than
//! inheriting a parent across threads. A span dropped on a different
//! thread than it started on (not a pattern the workspace uses) is
//! recorded correctly but cannot pop the origin thread's stack; stack
//! repair is defensive in `Drop` either way.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_SERIAL: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_SERIAL: u64 = NEXT_THREAD_SERIAL.fetch_add(1, Ordering::Relaxed);
    static OPEN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// A small process-unique serial for the calling thread (1-based, in
/// first-use order). Stable for the thread's lifetime; used as the `tid`
/// lane in Chrome traces.
pub fn thread_serial() -> u64 {
    THREAD_SERIAL.try_with(|s| *s).unwrap_or(0)
}

/// One completed span in the causal tree (profiling mode only).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Process-unique span id (allocation order, starts at 1).
    pub id: u64,
    /// Id of the innermost span open on the same thread when this span
    /// started, if any.
    pub parent: Option<u64>,
    /// Span name as passed to [`crate::span()`].
    pub name: &'static str,
    /// Serial of the thread the span started on (see [`thread_serial`]).
    pub thread: u64,
    /// Start time, nanoseconds on the collector clock.
    pub start_ns: u64,
    /// End time, nanoseconds on the collector clock (`≥ start_ns`).
    pub end_ns: u64,
}

impl SpanRecord {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Tree bookkeeping captured at construction when profiling is on.
struct TreeCtx {
    id: u64,
    parent: Option<u64>,
    thread: u64,
    start_ns: u64,
}

struct Started {
    name: &'static str,
    start: Instant,
    tree: Option<TreeCtx>,
}

/// A timing span: started by [`crate::span()`], it records its wall-clock
/// duration into the histogram `span.<name>_ns` when dropped, and — when
/// profiling is enabled — a structured [`SpanRecord`] in the causal tree.
///
/// A span obtained while tracing is disabled is inert: holding and
/// dropping it costs nothing beyond the construction branch.
#[must_use = "a span measures the scope it is bound to; dropping it immediately measures nothing"]
pub struct Span {
    inner: Option<Started>,
}

impl Span {
    /// An inert span (tracing disabled).
    pub const fn noop() -> Span {
        Span { inner: None }
    }

    pub(crate) fn started(name: &'static str) -> Span {
        let tree = if crate::profiling() {
            let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
            let parent = OPEN_STACK
                .try_with(|s| {
                    let mut s = s.borrow_mut();
                    let parent = s.last().copied();
                    s.push(id);
                    parent
                })
                .unwrap_or(None);
            Some(TreeCtx {
                id,
                parent,
                thread: thread_serial(),
                start_ns: crate::collector().now_nanos(),
            })
        } else {
            None
        };
        Span {
            inner: Some(Started {
                name,
                start: Instant::now(),
                tree,
            }),
        }
    }

    /// Whether this span is actually recording.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(st) = self.inner.take() else {
            return;
        };
        let nanos = st.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let c = crate::collector();
        if let Some(t) = st.tree {
            if t.thread == thread_serial() {
                let _ = OPEN_STACK.try_with(|s| {
                    let mut s = s.borrow_mut();
                    if s.last() == Some(&t.id) {
                        s.pop();
                    } else if let Some(pos) = s.iter().rposition(|&x| x == t.id) {
                        // Out-of-order drop (e.g. `mem::forget`-free but
                        // reordered locals): remove just this entry.
                        s.remove(pos);
                    }
                });
            }
            c.record_span(SpanRecord {
                id: t.id,
                parent: t.parent,
                name: st.name,
                thread: t.thread,
                start_ns: t.start_ns,
                end_ns: t.start_ns.saturating_add(nanos),
            });
        }
        c.observe_span(st.name, nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_span_records_nothing() {
        let s = Span::noop();
        assert!(!s.is_recording());
        drop(s);
    }

    #[test]
    fn thread_serials_are_distinct() {
        let mine = thread_serial();
        assert!(mine > 0);
        let theirs = std::thread::spawn(thread_serial).join().unwrap();
        assert_ne!(mine, theirs);
        // Stable on re-query.
        assert_eq!(mine, thread_serial());
    }
}
